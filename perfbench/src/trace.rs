//! In-memory spans for the traced run.
//!
//! A span is a name, a start and end (ns since the tracer's epoch), the
//! index of the span that caused it, and an op id shared by every span
//! of one operation (or one measured batch of operations). Spans stay in
//! memory while the run measures and are written out when it ends.

use std::fmt::Write as _;

use crate::clock::Stamp;

pub const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub op: u64,
}

pub struct Tracer {
    epoch: Stamp,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Stamp) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn ns(&self, t: Stamp) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a span now; close it with [`Self::close`].
    pub fn open(&mut self, name: &'static str, parent: u32, op: u64) -> u32 {
        let now = self.ns(Stamp::now());
        self.push(name, now, now, parent, op)
    }

    pub fn close(&mut self, id: u32) {
        let now = self.ns(Stamp::now());
        self.spans[id as usize].end_ns = now;
    }

    /// Record a finished span from two clock reads the caller already took.
    #[inline]
    pub fn record(
        &mut self,
        name: &'static str,
        t0: Stamp,
        t1: Stamp,
        parent: u32,
        op: u64,
    ) -> u32 {
        let (s, e) = (self.ns(t0), self.ns(t1));
        self.push(name, s, e, parent, op)
    }

    /// Close a span recorded with a placeholder end.
    pub fn set_end(&mut self, id: u32, t: Stamp) {
        let e = self.ns(t);
        self.spans[id as usize].end_ns = e;
    }

    fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: u32,
        op: u64,
    ) -> u32 {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            op,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Append another tracer's spans (same epoch), re-basing parents.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            s
        }));
    }

    /// Self time of every span: its duration minus the part of it that
    /// its children's intervals cover.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                children[s.parent as usize].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let (mut covered, mut cur) = (0u64, None::<(u64, u64)>);
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                    if a >= b {
                        continue;
                    }
                    cur = match cur {
                        Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                        Some((ca, cb)) => {
                            covered += cb - ca;
                            Some((a, b))
                        }
                        None => Some((a, b)),
                    };
                }
                if let Some((ca, cb)) = cur {
                    covered += cb - ca;
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// The spans as CSV: `id,name,start_ns,end_ns,parent,op,self_ns`.
    pub fn to_csv(&self) -> String {
        let selfs = self.self_times();
        let mut out = String::from("id,name,start_ns,end_ns,parent,op,self_ns\n");
        for (i, (s, own)) in self.spans.iter().zip(selfs).enumerate() {
            let parent = if s.parent == NO_PARENT {
                String::new()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                out,
                "{i},{},{},{},{parent},{},{own}",
                s.name, s.start_ns, s.end_ns, s.op
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        let mut t = Tracer::new(Stamp::now());
        let root = t.push("root", 0, 100, NO_PARENT, 1);
        t.push("a", 10, 40, root, 1);
        t.push("b", 30, 50, root, 1);
        t.push("c", 90, 120, root, 1);
        let selfs = t.self_times();
        assert_eq!(selfs[0], 100 - 40 - 10);
        assert_eq!(selfs[1], 30);
    }
}

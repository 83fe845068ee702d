//! In-memory spans recorded by the benchmark around its calls into each
//! layer, and the waterfall that sets their medians against the untraced
//! end-to-end p50.

use std::io::Write as _;
use std::path::Path;

use crate::json::Value;

/// One layer crossing of one request. `parent` indexes into the same span
/// list; spans of one request share `req`.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    pub req: u64,
}

#[derive(Default)]
pub struct Spans(pub Vec<Span>);

impl Spans {
    pub fn push(
        &mut self,
        name: &'static str,
        start_us: f64,
        dur_us: f64,
        parent: Option<usize>,
        req: u64,
    ) -> usize {
        self.0.push(Span {
            name,
            start_us,
            end_us: start_us + dur_us,
            parent,
            req,
        });
        self.0.len() - 1
    }

    /// Lays `parts` end to end as children of span `parent`, from its start.
    pub fn push_children(&mut self, parent: usize, parts: &[(&'static str, f64)]) {
        let Span {
            mut start_us, req, ..
        } = self.0[parent];
        for &(name, dur_us) in parts {
            self.push(name, start_us, dur_us, Some(parent), req);
            start_us += dur_us;
        }
    }

    /// One JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.0 {
            let line = Value::obj([
                ("name", Value::str(s.name)),
                ("start_us", Value::Num(s.start_us)),
                ("end_us", Value::Num(s.end_us)),
                (
                    "parent",
                    s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                ),
                ("req", Value::Num(s.req as f64)),
            ]);
            writeln!(out, "{}", line.encode())?;
        }
        out.flush()
    }
}

/// Layer rows in microseconds against an end-to-end p50: what they leave
/// over is the `unexplained` row, so the rows always sum to the p50.
pub struct Waterfall {
    pub rows: Vec<(&'static str, f64)>,
    pub p50_us: f64,
}

impl Waterfall {
    pub fn unexplained_us(&self) -> f64 {
        self.p50_us - self.rows.iter().map(|(_, us)| us).sum::<f64>()
    }

    pub fn unexplained_frac(&self) -> f64 {
        self.unexplained_us() / self.p50_us.max(1e-9)
    }

    /// The layer rows followed by the `unexplained` row.
    fn all_rows(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        let rest = ("unexplained", self.unexplained_us());
        self.rows.iter().copied().chain(std::iter::once(rest))
    }

    pub fn print(&self, workload: &str) {
        println!(
            "waterfall {workload}: untraced latency_p50_ms = {:.4}",
            self.p50_us / 1e3
        );
        for (name, us) in self.all_rows() {
            let share = 100.0 * us / self.p50_us.max(1e-9);
            println!("  {name:<28} {us:>10.1} us  {share:>5.1}%");
        }
    }

    pub fn to_json(&self) -> Value {
        let rows = self
            .all_rows()
            .map(|(name, us)| Value::obj([("layer", Value::str(name)), ("us", Value::Num(us))]))
            .collect();
        Value::obj([
            ("p50_us", Value::Num(self.p50_us)),
            ("rows", Value::Arr(rows)),
        ])
    }
}

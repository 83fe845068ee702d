//! Core data types: check-ins, POIs, datasets, statistics.

use stisan_geo::GeoPoint;

/// A point of interest.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Poi {
    /// Dense id (index into the dataset's POI table).
    pub id: u32,
    /// GPS location.
    pub loc: GeoPoint,
}

/// One check-in event (the paper's quad-tuple `c = <u, p, g, t>`; `g` is
/// looked up through the POI table).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CheckIn {
    /// POI id.
    pub poi: u32,
    /// Timestamp in seconds since the dataset epoch.
    pub time: f64,
}

/// A raw check-in dataset: a POI table plus one chronological check-in
/// sequence per user.
#[derive(Clone, Debug)]
pub struct Dataset {
    /// Human-readable dataset name (e.g. "gowalla-synth").
    pub name: String,
    /// POI table; `pois[i].id == i`.
    pub pois: Vec<Poi>,
    /// Per-user chronological check-in sequences.
    pub users: Vec<Vec<CheckIn>>,
}

/// The Table II statistics of a dataset.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DatasetStats {
    /// Number of users.
    pub users: usize,
    /// Number of POIs.
    pub pois: usize,
    /// Total check-ins.
    pub checkins: usize,
    /// `1 - checkins / (users * pois)` — the user-POI interaction sparsity.
    pub sparsity: f64,
    /// Mean check-ins per user.
    pub avg_seq_len: f64,
}

impl Dataset {
    /// Computes the Table II statistics.
    pub fn stats(&self) -> DatasetStats {
        let users = self.users.len();
        let pois = self.pois.len();
        let checkins: usize = self.users.iter().map(Vec::len).sum();
        // Sparsity over distinct user-POI interactions (matrix fill ratio).
        let mut distinct = 0usize;
        let mut seen = vec![u32::MAX; pois];
        for (u, seq) in self.users.iter().enumerate() {
            for c in seq {
                if seen[c.poi as usize] != u as u32 {
                    seen[c.poi as usize] = u as u32;
                    distinct += 1;
                }
            }
        }
        let cells = (users * pois) as f64;
        let sparsity = if cells > 0.0 { 1.0 - distinct as f64 / cells } else { 1.0 };
        DatasetStats {
            users,
            pois,
            checkins,
            sparsity,
            avg_seq_len: if users > 0 { checkins as f64 / users as f64 } else { 0.0 },
        }
    }

    /// Validates the chronological invariant (used by tests / debug builds).
    pub fn is_chronological(&self) -> bool {
        self.users.iter().all(|seq| seq.windows(2).all(|w| w[0].time <= w[1].time))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Dataset {
        Dataset {
            name: "tiny".into(),
            pois: vec![
                Poi { id: 0, loc: GeoPoint::new(0.0, 0.0) },
                Poi { id: 1, loc: GeoPoint::new(0.1, 0.1) },
            ],
            users: vec![
                vec![CheckIn { poi: 0, time: 0.0 }, CheckIn { poi: 1, time: 10.0 }],
                vec![CheckIn { poi: 1, time: 5.0 }],
            ],
        }
    }

    #[test]
    fn stats_counts() {
        let s = tiny().stats();
        assert_eq!(s.users, 2);
        assert_eq!(s.pois, 2);
        assert_eq!(s.checkins, 3);
        assert!((s.avg_seq_len - 1.5).abs() < 1e-9);
        // 3 distinct interactions of 4 cells -> sparsity 0.25.
        assert!((s.sparsity - 0.25).abs() < 1e-9);
    }

    #[test]
    fn chronological_check() {
        let mut d = tiny();
        assert!(d.is_chronological());
        d.users[0].swap(0, 1);
        assert!(!d.is_chronological());
    }
}

//! Answer checks: id comparison and the mutation-log replay that rebuilds
//! the served dataset at any generation the server acknowledged.

use rsky_core::record::{RecordId, RowBuf, ValueId};

/// Accepts `got` only if it is exactly `expected`: the same ids, ascending,
/// no duplicates (every engine and the server return ids that way).
pub fn check_ids(expected: &[RecordId], got: &[RecordId]) -> Result<(), String> {
    if !got.windows(2).all(|w| w[0] < w[1]) {
        return Err("ids are not strictly ascending".into());
    }
    if expected == got {
        return Ok(());
    }
    let missing = expected
        .iter()
        .filter(|id| got.binary_search(id).is_err())
        .count();
    let extra = got
        .iter()
        .filter(|id| expected.binary_search(id).is_err())
        .count();
    Err(format!(
        "{} ids where {} were expected ({missing} missing, {extra} extra)",
        got.len(),
        expected.len()
    ))
}

/// One acknowledged write.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Mutation {
    Insert { id: RecordId, values: Vec<ValueId> },
    Expire { id: RecordId },
}

/// Writes ordered by the generation the server acknowledged for each.
#[derive(Debug)]
pub struct MutationLog {
    base: u64,
    entries: Vec<(u64, Mutation)>,
}

impl MutationLog {
    /// Orders `entries` by generation. The server bumps the generation by
    /// one per write, starting above `base`, so the generations must run
    /// `base + 1, base + 2, …` without a gap or a repeat.
    pub fn ordered(base: u64, mut entries: Vec<(u64, Mutation)>) -> Result<Self, String> {
        entries.sort_by_key(|(g, _)| *g);
        for (i, (g, _)) in entries.iter().enumerate() {
            let want = base + 1 + i as u64;
            if *g != want {
                return Err(format!(
                    "acknowledged generations skip or repeat: {g} where {want} was due"
                ));
            }
        }
        Ok(Self { base, entries })
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// A replay positioned at the base generation over `rows`.
    pub fn replay(&self, rows: RowBuf) -> Replay<'_> {
        Replay {
            log: self,
            rows,
            generation: self.base,
            next: 0,
        }
    }
}

/// Rows of the served dataset, moved forward one acknowledged write at a
/// time exactly as the server's `DataState` applies them.
pub struct Replay<'a> {
    log: &'a MutationLog,
    rows: RowBuf,
    generation: u64,
    next: usize,
}

impl Replay<'_> {
    /// Applies every write up to and including generation `g`.
    pub fn advance_to(&mut self, g: u64) -> Result<&RowBuf, String> {
        if g < self.generation {
            return Err(format!(
                "replay is at generation {}, cannot go back to {g}",
                self.generation
            ));
        }
        if g > self.log.base + self.log.len() as u64 {
            return Err(format!(
                "generation {g} is past the last acknowledged write"
            ));
        }
        while self.generation < g {
            let (gen, m) = &self.log.entries[self.next];
            let has = |rows: &RowBuf, id: RecordId| (0..rows.len()).any(|i| rows.id(i) == id);
            match m {
                Mutation::Insert { id, values } => {
                    if has(&self.rows, *id) {
                        return Err(format!("generation {gen}: insert of existing id {id}"));
                    }
                    self.rows.push(*id, values);
                }
                Mutation::Expire { id } => {
                    if !has(&self.rows, *id) {
                        return Err(format!("generation {gen}: expire of missing id {id}"));
                    }
                    let mut kept =
                        RowBuf::with_capacity(self.rows.num_attrs(), self.rows.len() - 1);
                    for i in (0..self.rows.len()).filter(|&i| self.rows.id(i) != *id) {
                        kept.push(self.rows.id(i), self.rows.values(i));
                    }
                    self.rows = kept;
                }
            }
            self.generation = *gen;
            self.next += 1;
        }
        Ok(&self.rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsky_server::DataState;

    #[test]
    fn id_check_accepts_only_the_exact_answer() {
        let expected = [2, 5, 9, 14];
        assert!(check_ids(&expected, &[2, 5, 9, 14]).is_ok());
        assert!(check_ids(&[], &[]).is_ok());
        // Corrupted answers: a changed id, a dropped id, an extra id, and
        // the right ids out of order or repeated.
        assert!(check_ids(&expected, &[2, 5, 10, 14]).is_err());
        assert!(check_ids(&expected, &[2, 5, 14]).is_err());
        assert!(check_ids(&expected, &[2, 5, 9, 14, 20]).is_err());
        assert!(check_ids(&expected, &[14, 9, 5, 2]).is_err());
        assert!(check_ids(&expected, &[2, 5, 5, 9, 14]).is_err());
        let e = check_ids(&expected, &[2, 5, 10, 14]).unwrap_err();
        assert!(e.contains("1 missing, 1 extra"), "{e}");
    }

    fn rows_of(ids_values: &[(RecordId, [ValueId; 2])]) -> RowBuf {
        let mut rows = RowBuf::new(2);
        for (id, v) in ids_values {
            rows.push(*id, v);
        }
        rows
    }

    #[test]
    fn replay_reproduces_every_server_generation() {
        let (ds, _) = rsky_data::paper_example();
        let m = ds.schema.num_attrs();
        let base_rows = ds.rows.clone();
        let state = DataState::new(ds);
        let base = state.current().generation;

        // Acknowledged out of order, as two connections would log them.
        let mut acks = Vec::new();
        let mut server_rows = vec![(base, state.current().dataset.rows.clone())];
        let writes = [
            Mutation::Insert {
                id: 100,
                values: vec![0; m],
            },
            Mutation::Insert {
                id: 101,
                values: vec![1; m],
            },
            Mutation::Expire { id: 3 },
            Mutation::Expire { id: 100 },
            Mutation::Insert {
                id: 102,
                values: vec![0; m],
            },
        ];
        for w in writes {
            let (version, _) = match &w {
                Mutation::Insert { id, values } => state.insert(*id, values).unwrap(),
                Mutation::Expire { id } => state.expire(*id).unwrap(),
            };
            server_rows.push((version.generation, version.dataset.rows.clone()));
            acks.push((version.generation, w));
        }
        acks.reverse();

        let log = MutationLog::ordered(base, acks).unwrap();
        let mut replay = log.replay(base_rows);
        for (g, rows) in &server_rows {
            assert_eq!(replay.advance_to(*g).unwrap(), rows, "generation {g}");
        }
        assert!(
            replay.advance_to(base).is_err(),
            "a replay only moves forward"
        );
        assert!(
            replay.advance_to(base + 6).is_err(),
            "no write was acknowledged past the log"
        );
    }

    #[test]
    fn a_log_with_a_gap_or_repeat_is_refused() {
        let w = |id| Mutation::Expire { id };
        assert!(MutationLog::ordered(1, vec![(2, w(1)), (4, w(2))]).is_err());
        assert!(MutationLog::ordered(1, vec![(2, w(1)), (2, w(2))]).is_err());
        assert!(MutationLog::ordered(1, vec![(3, w(1)), (2, w(2))]).is_ok());
    }

    #[test]
    fn replay_refuses_writes_the_server_would_have_refused() {
        let rows = rows_of(&[(1, [0, 0]), (2, [1, 1])]);
        let log = MutationLog::ordered(
            1,
            vec![(
                2,
                Mutation::Insert {
                    id: 2,
                    values: vec![0, 0],
                },
            )],
        )
        .unwrap();
        assert!(log.replay(rows.clone()).advance_to(2).is_err());
        let log = MutationLog::ordered(1, vec![(2, Mutation::Expire { id: 9 })]).unwrap();
        assert!(log.replay(rows).advance_to(2).is_err());
    }
}

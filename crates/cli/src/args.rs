//! Minimal `--key value` flag parsing (keeps the CLI dependency-free).

use std::collections::HashMap;

use rsky_core::error::{Error, Result};
use rsky_storage::{ShardPolicy, ShardSpec};

/// Parsed `--key value` flags.
pub struct Flags {
    values: HashMap<String, String>,
    /// Bare `--switch` flags (no value).
    switches: Vec<String>,
}

/// Flag names that are boolean switches (take no value).
const SWITCHES: &[&str] = &["explain", "file-backend", "keep-ids", "test-ops", "tree"];

/// Whether the help text `usage` documents `--key`: on its first line (the
/// synopsis) or as the first word of a line (an option row). A flag named
/// only in prose or in an example of another command is not documented.
fn documents(usage: &str, key: &str) -> bool {
    let flag = format!("--{key}");
    let mut lines = usage.lines();
    let synopsis = lines.next().unwrap_or("");
    synopsis.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-')).any(|w| w == flag)
        || lines.any(|line| line.split_whitespace().next() == Some(flag.as_str()))
}

impl Flags {
    /// Parses `--key value` pairs and bare switches. `usage` is the
    /// command's help text (its first line `rsky <command> …`): a flag it
    /// does not document is refused by name, so a misspelt flag fails
    /// instead of running with the default it meant to change.
    pub fn parse(argv: &[String], usage: &str) -> Result<Self> {
        let mut values = HashMap::new();
        let mut switches = Vec::new();
        let mut i = 0;
        while i < argv.len() {
            let arg = &argv[i];
            let Some(key) = arg.strip_prefix("--") else {
                return Err(Error::InvalidConfig(format!(
                    "unexpected argument {arg:?} (flags are --key value)"
                )));
            };
            if !documents(usage, key) {
                let command = usage.split_whitespace().nth(1).unwrap_or("");
                return Err(Error::InvalidConfig(format!(
                    "unknown flag --{key} (see `rsky help {command}`)"
                )));
            }
            if SWITCHES.contains(&key) {
                switches.push(key.to_string());
                i += 1;
                continue;
            }
            let Some(value) = argv.get(i + 1) else {
                return Err(Error::InvalidConfig(format!("flag --{key} needs a value")));
            };
            values.insert(key.to_string(), value.clone());
            i += 2;
        }
        Ok(Self { values, switches })
    }

    /// String flag.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// Required string flag.
    pub fn require(&self, key: &str) -> Result<&str> {
        self.get(key).ok_or_else(|| Error::InvalidConfig(format!("missing required flag --{key}")))
    }

    /// Parsed numeric flag with default.
    pub fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| Error::InvalidConfig(format!("flag --{key}: bad value {v:?}"))),
        }
    }

    /// Whether a bare switch was given.
    pub fn switch(&self, key: &str) -> bool {
        self.switches.iter().any(|s| s == key)
    }

    /// Comma-separated `u32` list flag.
    pub fn u32_list(&self, key: &str) -> Result<Option<Vec<u32>>> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => v
                .split(',')
                .map(|c| {
                    c.trim().parse().map_err(|_| {
                        Error::InvalidConfig(format!("flag --{key}: bad element {c:?}"))
                    })
                })
                .collect::<Result<Vec<u32>>>()
                .map(Some),
        }
    }

    /// Comma-separated `usize` list flag.
    pub fn usize_list(&self, key: &str) -> Result<Option<Vec<usize>>> {
        Ok(self.u32_list(key)?.map(|v| v.into_iter().map(|x| x as usize).collect()))
    }

    /// The shared `--shards K --shard-policy P` pair: `None` without
    /// `--shards` (single-node execution), otherwise a validated spec with
    /// the policy defaulting to round-robin.
    pub fn shard_spec(&self) -> Result<Option<ShardSpec>> {
        let Some(k) = self.get("shards") else {
            if self.get("shard-policy").is_some() {
                return Err(Error::InvalidConfig("--shard-policy requires --shards".into()));
            }
            return Ok(None);
        };
        let shards: usize = k
            .parse()
            .map_err(|_| Error::InvalidConfig(format!("flag --shards: bad value {k:?}")))?;
        let policy = match self.get("shard-policy") {
            Some(p) => ShardPolicy::parse(p)?,
            None => ShardPolicy::RoundRobin,
        };
        Ok(Some(ShardSpec::new(shards, policy)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Help text documenting every flag the tests pass, plus `--prose`,
    /// which only a sentence names.
    const USAGE: &str = "\
rsky test --n <N> [OPTIONS]

Mentions --prose in a sentence.

OPTIONS:
    --kind K
    --explain
    --query V,V,…
    --subset I,I,…
    --shards K
    --shard-policy P";

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    fn parse(v: &[&str]) -> Result<Flags> {
        Flags::parse(&s(v), USAGE)
    }

    #[test]
    fn refuses_flags_the_usage_does_not_document() {
        assert!(parse(&["--n", "1", "--kind", "x", "--explain"]).is_ok());
        for bad in [&["--memroy", "1"][..], &["--shard", "2"], &["--prose", "1"], &["--tree"]] {
            let err = parse(bad).err().unwrap_or_else(|| panic!("{bad:?} accepted"));
            assert!(err.to_string().contains(bad[0]), "{bad:?}: {err}");
            assert!(err.to_string().contains("rsky help test"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn parses_pairs_and_switches() {
        let f = parse(&["--n", "100", "--explain", "--kind", "normal"]).unwrap();
        assert_eq!(f.get("n"), Some("100"));
        assert_eq!(f.get("kind"), Some("normal"));
        assert!(f.switch("explain"));
        assert!(!f.switch("file-backend"));
        assert_eq!(f.num::<usize>("n", 5).unwrap(), 100);
        assert_eq!(f.num::<usize>("missing", 5).unwrap(), 5);
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse(&["positional"]).is_err());
        assert!(parse(&["--n"]).is_err());
        let f = parse(&["--n", "abc"]).unwrap();
        assert!(f.num::<usize>("n", 0).is_err());
        assert!(f.require("missing").is_err());
    }

    #[test]
    fn parses_shard_specs() {
        assert_eq!(parse(&[]).unwrap().shard_spec().unwrap(), None);
        let f = parse(&["--shards", "3"]).unwrap();
        assert_eq!(
            f.shard_spec().unwrap(),
            Some(ShardSpec::new(3, ShardPolicy::RoundRobin).unwrap())
        );
        let f = parse(&["--shards", "2", "--shard-policy", "hash"]).unwrap();
        assert_eq!(f.shard_spec().unwrap(), Some(ShardSpec::new(2, ShardPolicy::HashById).unwrap()));
        // Policy without a count, a zero count, and junk are all rejected.
        assert!(parse(&["--shard-policy", "hash"]).unwrap().shard_spec().is_err());
        assert!(parse(&["--shards", "0"]).unwrap().shard_spec().is_err());
        assert!(parse(&["--shards", "x"]).unwrap().shard_spec().is_err());
        assert!(parse(&["--shards", "2", "--shard-policy", "zig"])
            .unwrap()
            .shard_spec()
            .is_err());
    }

    #[test]
    fn parses_lists() {
        let f = parse(&["--query", "1,2,3", "--subset", "0, 2"]).unwrap();
        assert_eq!(f.u32_list("query").unwrap().unwrap(), vec![1, 2, 3]);
        assert_eq!(f.usize_list("subset").unwrap().unwrap(), vec![0, 2]);
        assert_eq!(f.u32_list("none").unwrap(), None);
        let bad = parse(&["--query", "1,x"]).unwrap();
        assert!(bad.u32_list("query").is_err());
    }
}

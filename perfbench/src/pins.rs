//! Deterministic count pins: `perfbench/pins.txt` records, per
//! workload, the seed and run length the pins were taken at and every
//! count the run reports (simulated instructions and windows, cells,
//! cache hits, journal lines and bytes, requests, responses, body
//! bytes). `--check` re-runs at the pinned seed and length and fails on
//! any drift. Timings are never pinned.
//!
//! Format: one `<workload> <name> <value>` triple per line, `#`
//! comments; `seed` and `seconds` are the run parameters.

use std::collections::BTreeMap;

/// The pins file, relative to the repository root.
pub const PINS_PATH: &str = "perfbench/pins.txt";

type Pins = BTreeMap<String, BTreeMap<String, String>>;

fn parse(text: &str) -> Result<Pins, String> {
    let mut pins = Pins::new();
    for (n, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let f: Vec<&str> = line.split_whitespace().collect();
        let [w, name, value] = f[..] else {
            return Err(format!(
                "{PINS_PATH}:{}: expected `<workload> <name> <value>`",
                n + 1
            ));
        };
        if pins
            .entry(w.to_string())
            .or_default()
            .insert(name.into(), value.into())
            .is_some()
        {
            return Err(format!("{PINS_PATH}:{}: {w} {name} pinned twice", n + 1));
        }
    }
    Ok(pins)
}

fn render(pins: &Pins) -> String {
    let mut s = String::from(
        "# Deterministic counts per workload, checked by `--check`; rewrite one\n\
         # workload's block with `--write-pins`. Counts are per pass for\n\
         # cells and for the measured phase of serve_mix.\n",
    );
    for (w, entries) in pins {
        for key in ["seed", "seconds"] {
            if let Some(v) = entries.get(key) {
                s.push_str(&format!("{w} {key} {v}\n"));
            }
        }
        for (name, v) in entries
            .iter()
            .filter(|(k, _)| *k != "seed" && *k != "seconds")
        {
            s.push_str(&format!("{w} {name} {v}\n"));
        }
    }
    s
}

fn read() -> Result<Pins, String> {
    match std::fs::read_to_string(PINS_PATH) {
        Ok(text) => parse(&text),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Pins::new()),
        Err(e) => Err(format!("{PINS_PATH}: {e}")),
    }
}

/// One workload's pins.
pub struct Pinned {
    /// The seed the counts were taken at.
    pub seed: u64,
    /// The run length the counts were taken at.
    pub seconds: f64,
    /// The counts.
    pub counts: BTreeMap<String, u64>,
}

/// The pins of `workload`, if pinned.
pub fn load(workload: &str) -> Result<Option<Pinned>, String> {
    let pins = read()?;
    let Some(entries) = pins.get(workload) else {
        return Ok(None);
    };
    let get = |k: &str| {
        entries
            .get(k)
            .ok_or(format!("{workload} has no pinned {k}"))
    };
    let seed = get("seed")?
        .parse()
        .map_err(|e| format!("{workload} seed: {e}"))?;
    let seconds = get("seconds")?
        .parse()
        .map_err(|e| format!("{workload} seconds: {e}"))?;
    let mut counts = BTreeMap::new();
    for (k, v) in entries
        .iter()
        .filter(|(k, _)| *k != "seed" && *k != "seconds")
    {
        counts.insert(
            k.clone(),
            v.parse().map_err(|e| format!("{workload} {k}: {e}"))?,
        );
    }
    Ok(Some(Pinned {
        seed,
        seconds,
        counts,
    }))
}

/// Compares `counts` with the pins of `workload`; an error lists every
/// drift.
pub fn check(workload: &str, counts: &BTreeMap<String, u64>) -> Result<(), String> {
    let pinned = load(workload)?
        .ok_or(format!("no pins for {workload}"))?
        .counts;
    let drift = diff(&pinned, counts);
    if drift.is_empty() {
        eprintln!(
            "perfbench: {workload}: all {} pinned counts match",
            pinned.len()
        );
        Ok(())
    } else {
        Err(format!(
            "count drift from {PINS_PATH}:\n  {}",
            drift.join("\n  ")
        ))
    }
}

fn diff(pinned: &BTreeMap<String, u64>, counts: &BTreeMap<String, u64>) -> Vec<String> {
    let mut out = Vec::new();
    for (k, want) in pinned {
        match counts.get(k) {
            Some(got) if got == want => {}
            Some(got) => out.push(format!("{k}: pinned {want}, measured {got}")),
            None => out.push(format!("{k}: pinned {want}, not measured")),
        }
    }
    for (k, got) in counts {
        if !pinned.contains_key(k) {
            out.push(format!("{k}: measured {got}, not pinned"));
        }
    }
    out
}

/// Replaces the pins of `workload`.
pub fn write(
    workload: &str,
    seed: u64,
    seconds: f64,
    counts: &BTreeMap<String, u64>,
) -> Result<(), String> {
    let mut pins = read()?;
    let entries = pins.entry(workload.to_string()).or_default();
    entries.clear();
    entries.insert("seed".into(), seed.to_string());
    entries.insert("seconds".into(), seconds.to_string());
    for (k, v) in counts {
        entries.insert(k.clone(), v.to_string());
    }
    std::fs::write(PINS_PATH, render(&pins)).map_err(|e| format!("{PINS_PATH}: {e}"))?;
    eprintln!(
        "perfbench: {workload}: pinned {} counts in {PINS_PATH}",
        counts.len()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pins_round_trip_through_the_text_format() {
        let mut pins = Pins::new();
        let e = pins.entry("cells".into()).or_default();
        e.insert("seed".into(), "7".into());
        e.insert("seconds".into(), "10".into());
        e.insert("core.cells".into(), "239".into());
        assert_eq!(parse(&render(&pins)).unwrap(), pins);
        assert!(parse("cells core.cells\n").is_err());
        assert!(parse("cells seed 1\ncells seed 2\n").is_err());
    }

    #[test]
    fn any_drift_is_reported() {
        let pinned: BTreeMap<String, u64> = [("a".into(), 1), ("b".into(), 2)].into();
        assert!(diff(&pinned, &pinned).is_empty());
        let moved: BTreeMap<String, u64> = [("a".into(), 1), ("b".into(), 3)].into();
        assert_eq!(diff(&pinned, &moved), ["b: pinned 2, measured 3"]);
        let fewer: BTreeMap<String, u64> = [("a".into(), 1)].into();
        assert_eq!(diff(&pinned, &fewer), ["b: pinned 2, not measured"]);
        let more: BTreeMap<String, u64> =
            [("a".into(), 1), ("b".into(), 2), ("c".into(), 0)].into();
        assert_eq!(diff(&pinned, &more), ["c: measured 0, not pinned"]);
    }
}

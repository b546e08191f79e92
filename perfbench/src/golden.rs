//! The correctness gate's reference: the committed
//! `results_regenerated.txt`, split into one block per artifact.
//!
//! A block is exactly what `regen` prints for one artifact
//! (`bench::render_artifact_block`): the `== caption ==` header line,
//! the rendering, and the blank separator line, up to the next header.

use std::collections::BTreeMap;

/// Where the golden file lives, relative to the repository root (the
/// benchmark runs from there).
pub const GOLDEN_PATH: &str = "results_regenerated.txt";

/// The golden blocks keyed by caption.
#[derive(Debug)]
pub struct Golden {
    blocks: BTreeMap<String, String>,
}

fn header_caption(line: &str) -> Option<&str> {
    line.strip_prefix("== ")?.strip_suffix(" ==")
}

impl Golden {
    /// Splits the golden text into blocks. Fails on text that does not
    /// start with a header or repeats a caption.
    pub fn parse(text: &str) -> Result<Golden, String> {
        let mut blocks = BTreeMap::new();
        let mut current: Option<(String, String)> = None;
        for line in text.split_inclusive('\n') {
            if let Some(caption) = header_caption(line.trim_end_matches('\n')) {
                if let Some((c, b)) = current.take() {
                    if blocks.insert(c.clone(), b).is_some() {
                        return Err(format!("caption {c:?} appears twice"));
                    }
                }
                current = Some((caption.to_string(), line.to_string()));
            } else {
                match &mut current {
                    Some((_, b)) => b.push_str(line),
                    None => return Err("text before the first `== caption ==` header".into()),
                }
            }
        }
        if let Some((c, b)) = current {
            if blocks.insert(c.clone(), b).is_some() {
                return Err(format!("caption {c:?} appears twice"));
            }
        }
        Ok(Golden { blocks })
    }

    /// Reads and splits [`GOLDEN_PATH`].
    pub fn load() -> Result<Golden, String> {
        let text = std::fs::read_to_string(GOLDEN_PATH).map_err(|e| {
            format!("cannot read {GOLDEN_PATH}: {e} (run from the repository root)")
        })?;
        Golden::parse(&text)
    }

    /// The block for `caption`.
    pub fn block(&self, caption: &str) -> Option<&str> {
        self.blocks.get(caption).map(String::as_str)
    }

    /// The block of `artifact`, or an error naming the missing caption.
    pub fn artifact(&self, artifact: bench::Artifact) -> Result<&str, String> {
        self.block(artifact.caption())
            .ok_or_else(|| format!("{GOLDEN_PATH} has no block for {}", artifact.name()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEXT: &str = "== Table A ==\nx  y\n----\n1  2\n\n== Table B ==\nonly\n\n";

    #[test]
    fn blocks_run_from_header_to_next_header() {
        let g = Golden::parse(TEXT).unwrap();
        assert_eq!(
            g.block("Table A"),
            Some("== Table A ==\nx  y\n----\n1  2\n\n")
        );
        assert_eq!(g.block("Table B"), Some("== Table B ==\nonly\n\n"));
        assert_eq!(g.block("Table C"), None);
    }

    #[test]
    fn a_line_that_only_contains_equals_signs_is_not_a_header() {
        let g = Golden::parse("== A ==\n== not a header\nx == y\n\n").unwrap();
        assert_eq!(g.block("A"), Some("== A ==\n== not a header\nx == y\n\n"));
    }

    #[test]
    fn malformed_golden_text_is_refused() {
        assert!(Golden::parse("stray\n== A ==\n").is_err());
        assert!(Golden::parse("== A ==\n1\n== A ==\n2\n").is_err());
    }

    #[test]
    fn blocks_match_what_regen_renders() {
        // The block format is bench::render_artifact_block's.
        let r = bench::ArtifactResult {
            artifact: bench::Artifact::Table2,
            outcome: Ok(bench::ArtifactOutput {
                text: "body\n".into(),
                degraded: false,
            }),
            cells: Default::default(),
        };
        let rendered = bench::render_artifact_block(&r);
        let g = Golden::parse(&rendered).unwrap();
        assert_eq!(g.artifact(bench::Artifact::Table2).unwrap(), rendered);
    }
}

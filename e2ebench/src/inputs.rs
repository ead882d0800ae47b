//! Seeded input graphs, generated in a child process.
//!
//! Generation runs in a separate process of this same binary, which
//! writes the adjacency to a file the measuring process then reads. That
//! keeps generation out of every metric, peak resident memory included:
//! the R-MAT generator's de-duplication set alone outgrows the program's
//! own working set on the larger graphs.
//!
//! A generated file is named by (generator, parameters, seed). It is
//! deleted after loading unless `E2EBENCH_KEEP_INPUTS=1` is set, in which
//! case it stays under `.bench_cache/` and later runs with the same key
//! read it instead of generating again.

use sparse::generate::{rmat, RmatParams, SuiteGraph};
use sparse::{CooMatrix, Triplet};
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

const MAGIC: &[u8; 8] = b"E2ECOO01";
const CACHE_DIR: &str = ".bench_cache";

/// One generated input graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InputSpec {
    /// The Pokec analogue (`SuiteGraph::Pokec`) shrunk by `divisor`.
    Pokec {
        /// Scale divisor of vertices and edges.
        divisor: usize,
    },
    /// Graph500 R-MAT with `2^scale` vertices and `edge_factor * 2^scale`
    /// requested edges.
    Rmat {
        /// log2 of the vertex count.
        scale: u32,
        /// Requested edges per vertex.
        edge_factor: usize,
    },
}

impl InputSpec {
    /// The cache key: generator, parameters and seed.
    pub fn key(self, seed: u64) -> String {
        match self {
            InputSpec::Pokec { divisor } => format!("pokec-div{divisor}-seed{seed}"),
            InputSpec::Rmat { scale, edge_factor } => {
                format!("rmat-graph500-scale{scale}-ef{edge_factor}-seed{seed}")
            }
        }
    }

    /// Parses the command-line form `pokec:<divisor>` or
    /// `rmat:<scale>:<edge factor>`.
    pub fn parse(s: &str) -> Option<InputSpec> {
        let parts: Vec<&str> = s.split(':').collect();
        match parts.as_slice() {
            ["pokec", d] => Some(InputSpec::Pokec {
                divisor: d.parse().ok()?,
            }),
            ["rmat", s, e] => Some(InputSpec::Rmat {
                scale: s.parse().ok()?,
                edge_factor: e.parse().ok()?,
            }),
            _ => None,
        }
    }

    /// The command-line form [`InputSpec::parse`] reads.
    pub fn arg(self) -> String {
        match self {
            InputSpec::Pokec { divisor } => format!("pokec:{divisor}"),
            InputSpec::Rmat { scale, edge_factor } => format!("rmat:{scale}:{edge_factor}"),
        }
    }

    fn generate(self, seed: u64) -> Result<CooMatrix, String> {
        let m = match self {
            InputSpec::Pokec { divisor } => SuiteGraph::Pokec.spec().scaled(divisor).generate(seed),
            InputSpec::Rmat { scale, edge_factor } => {
                rmat(scale, edge_factor << scale, RmatParams::GRAPH500, seed)
            }
        };
        m.map_err(|e| format!("generating {}: {e}", self.key(seed)))
    }
}

/// Entry point of the generating child: writes the graph to `out`.
pub fn generate_to(spec: InputSpec, seed: u64, out: &Path) -> Result<(), String> {
    let m = spec.generate(seed)?;
    write(&m, out).map_err(|e| format!("writing {}: {e}", out.display()))
}

/// A loaded input and how long producing it took (excluded from every
/// metric; printed as a diagnostic).
#[derive(Debug)]
pub struct Loaded {
    /// The adjacency matrix (edge `u -> v` at `(u, v)`).
    pub matrix: CooMatrix,
    /// Seconds spent generating (0 when read from the cache) and reading.
    pub seconds: f64,
    /// Whether the graph came from a kept cache file.
    pub cached: bool,
}

/// Generates (in a child process) or reads from the cache the graph of
/// `spec` at `seed`.
pub fn load(spec: InputSpec, seed: u64) -> Result<Loaded, String> {
    let t0 = Instant::now();
    let keep = std::env::var("E2EBENCH_KEEP_INPUTS").is_ok_and(|v| v == "1");
    std::fs::create_dir_all(CACHE_DIR).map_err(|e| format!("creating {CACHE_DIR}: {e}"))?;
    let kept = Path::new(CACHE_DIR).join(format!("{}.coo", spec.key(seed)));
    if keep {
        if let Ok(matrix) = read(&kept) {
            return Ok(Loaded {
                matrix,
                seconds: t0.elapsed().as_secs_f64(),
                cached: true,
            });
        }
    }
    let path: PathBuf = if keep {
        kept
    } else {
        Path::new(CACHE_DIR).join(format!("{}.{}.tmp", spec.key(seed), std::process::id()))
    };
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let status = Command::new(exe)
        .arg("--generate")
        .arg(spec.arg())
        .arg("--seed")
        .arg(seed.to_string())
        .arg("--out")
        .arg(&path)
        .status()
        .map_err(|e| format!("starting the generator process: {e}"))?;
    if !status.success() {
        let _ = std::fs::remove_file(&path);
        return Err(format!(
            "generator process for {} failed: {status}",
            spec.key(seed)
        ));
    }
    let matrix = read(&path).map_err(|e| format!("reading {}: {e}", path.display()));
    if !keep {
        let _ = std::fs::remove_file(&path);
    }
    Ok(Loaded {
        matrix: matrix?,
        seconds: t0.elapsed().as_secs_f64(),
        cached: false,
    })
}

fn write(m: &CooMatrix, path: &Path) -> std::io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    w.write_all(MAGIC)?;
    for x in [m.rows() as u64, m.cols() as u64, m.nnz() as u64] {
        w.write_all(&x.to_le_bytes())?;
    }
    for t in m.entries() {
        w.write_all(&t.row.to_le_bytes())?;
        w.write_all(&t.col.to_le_bytes())?;
        w.write_all(&t.val.to_le_bytes())?;
    }
    w.flush()
}

fn read(path: &Path) -> Result<CooMatrix, String> {
    let mut r = BufReader::new(File::open(path).map_err(|e| e.to_string())?);
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic).map_err(|e| e.to_string())?;
    if &magic != MAGIC {
        return Err("not a benchmark input file".into());
    }
    let mut word = [0u8; 8];
    let mut header = [0usize; 3];
    for h in &mut header {
        r.read_exact(&mut word).map_err(|e| e.to_string())?;
        *h = usize::try_from(u64::from_le_bytes(word)).map_err(|e| e.to_string())?;
    }
    let [rows, cols, nnz] = header;
    let expected = 32 + 12 * nnz as u64;
    let actual = std::fs::metadata(path).map_err(|e| e.to_string())?.len();
    if actual != expected {
        return Err(format!(
            "file holds {actual} bytes, header promises {expected}"
        ));
    }
    let mut entries = Vec::with_capacity(nnz);
    let mut rec = [0u8; 12];
    for _ in 0..nnz {
        r.read_exact(&mut rec).map_err(|e| e.to_string())?;
        let word = |i: usize| [rec[i], rec[i + 1], rec[i + 2], rec[i + 3]];
        entries.push(Triplet {
            row: u32::from_le_bytes(word(0)),
            col: u32::from_le_bytes(word(4)),
            val: f32::from_le_bytes(word(8)),
        });
    }
    CooMatrix::from_sorted_triplets(rows, cols, entries).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_round_trip_is_exact() {
        let m = InputSpec::Rmat {
            scale: 8,
            edge_factor: 4,
        }
        .generate(3)
        .unwrap();
        let dir = Path::new(CACHE_DIR).join(format!("test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.coo");
        write(&m, &path).unwrap();
        let back = read(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn spec_argument_round_trips() {
        for spec in [
            InputSpec::Pokec { divisor: 64 },
            InputSpec::Rmat {
                scale: 20,
                edge_factor: 16,
            },
        ] {
            assert_eq!(InputSpec::parse(&spec.arg()), Some(spec));
        }
        assert_eq!(InputSpec::parse("rmat:20"), None);
    }
}

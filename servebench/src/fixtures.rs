//! Forest fixtures: the two trained forests the workloads deploy.
//!
//! `rfx_bench::workloads::trained_forest` trains each forest once with
//! fixed training seeds and caches it on disk. A cached file is used only
//! after its length and content hash match the values committed here, so
//! a stale or truncated cache — or a change to training or serialization
//! that would silently change the workload — fails loudly.

use rfx_bench::scale::Scale;
use rfx_bench::workloads::trained_forest;
use rfx_data::DatasetKind;
use std::fs;
use std::path::{Path, PathBuf};

/// One trained forest, identified by its shape and its serialized bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fixture {
    /// Cache sub-directory name.
    pub name: &'static str,
    /// Maximum tree depth the forest is trained with.
    pub depth: usize,
    /// Number of trees.
    pub trees: usize,
    /// Length of the serialized forest in bytes.
    pub len: usize,
    /// FNV-1a 64 hash of the serialized forest.
    pub hash: u64,
}

/// Susy-like, depth 12, 20 trees: small enough to stay resident in one
/// core's L2.
pub const LIGHT: Fixture = Fixture {
    name: "susy-d12-t20",
    depth: 12,
    trees: 20,
    len: 875_308,
    hash: 0xdd60_ad32_79b0_34c6,
};

/// Susy-like, depth 20, 50 trees: several times larger than L2.
pub const DEEP: Fixture = Fixture {
    name: "susy-d20-t50",
    depth: 20,
    trees: 50,
    len: 10_991_358,
    hash: 0x95ad_80aa_06c0_16b2,
};

/// FNV-1a, 64-bit.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

fn check(fixture: &Fixture, bytes: &[u8]) -> Result<(), String> {
    let hash = fnv1a64(bytes);
    if bytes.len() == fixture.len && hash == fixture.hash {
        Ok(())
    } else {
        Err(format!(
            "fixture {} holds {} bytes with hash {hash:#018x}; expected {} bytes with hash {:#018x}",
            fixture.name,
            bytes.len(),
            fixture.len,
            fixture.hash
        ))
    }
}

fn cached_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|x| x == "rfxf"))
                .collect()
        })
        .unwrap_or_default();
    files.sort();
    files
}

/// Makes sure `cache` holds a verified copy of `fixture`, training it when
/// it is missing. A cached file whose hash does not match is reported and
/// replaced; a freshly trained forest that does not match is an error.
pub fn ensure(cache: &Path, fixture: &Fixture) -> Result<(), String> {
    let dir = cache.join(fixture.name);
    for path in cached_files(&dir) {
        let bytes = fs::read(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
        match check(fixture, &bytes) {
            Ok(()) => return Ok(()),
            Err(why) => {
                eprintln!("servebench: {why}: discarding {} and retraining", path.display());
                fs::remove_file(&path).map_err(|e| format!("removing {}: {e}", path.display()))?;
            }
        }
    }
    // `trained_forest` caches under `RFX_CACHE`; one directory per
    // fixture keeps exactly one forest file in each.
    std::env::set_var("RFX_CACHE", &dir);
    let _ = trained_forest(DatasetKind::SusyLike, fixture.depth, fixture.trees, Scale::Default);
    load(cache, fixture).map(|_| ())
}

/// Reads the cached `fixture` and verifies it against the committed hash.
pub fn load(cache: &Path, fixture: &Fixture) -> Result<Vec<u8>, String> {
    let dir = cache.join(fixture.name);
    match cached_files(&dir).as_slice() {
        [path] => {
            let bytes = fs::read(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
            check(fixture, &bytes)?;
            Ok(bytes)
        }
        [] => Err(format!("fixture {} is not cached in {}", fixture.name, dir.display())),
        many => Err(format!("{} holds {} forest files; expected one", dir.display(), many.len())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn truncated_or_altered_bytes_are_refused() {
        let bytes = b"forest bytes".to_vec();
        let fixture =
            Fixture { name: "t", depth: 1, trees: 1, len: bytes.len(), hash: fnv1a64(&bytes) };
        assert!(check(&fixture, &bytes).is_ok());
        assert!(check(&fixture, &bytes[..bytes.len() - 1]).is_err());
        let mut altered = bytes.clone();
        altered[0] ^= 1;
        assert!(check(&fixture, &altered).is_err());
    }

    #[test]
    fn load_refuses_a_stale_cache_file() {
        let cache = std::env::temp_dir().join(format!("servebench-fixture-{}", std::process::id()));
        let fixture = Fixture { name: "stale", depth: 1, trees: 1, len: 3, hash: fnv1a64(b"abc") };
        let dir = cache.join(fixture.name);
        fs::create_dir_all(&dir).expect("temp dir is writable");
        fs::write(dir.join("f.rfxf"), b"abd").expect("temp file is writable");
        assert!(load(&cache, &fixture).is_err());
        fs::write(dir.join("f.rfxf"), b"abc").expect("temp file is writable");
        assert_eq!(load(&cache, &fixture).expect("matching file loads"), b"abc");
        let _ = fs::remove_dir_all(&cache);
    }
}

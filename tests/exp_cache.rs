//! Cache correctness for the `td exp` plane (crates/bench/src/exp.rs).
//!
//! The contract under test:
//!
//! * a warm rerun satisfies every configuration from the cache and leaves
//!   the cached files byte-identical — nothing re-executes;
//! * `--force` re-executes everything even over a warm cache;
//! * a cached file that does not parse (truncated by an interrupted run,
//!   say) is a miss: it is re-executed and replaced, and render recovers;
//! * changing any key component (seed, workload spec, executor grid,
//!   schema version) lands on a different cache key, so stale results can
//!   never be served for a different configuration;
//! * the config → key canonicalization is injective and stable across
//!   reorderings of equivalent workload parameters (proptest).

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use td_bench::exp::{self, canonical_key_string, fnv1a64, ExpConfig, UnitStatus, VERSION};
use td_bench::WorkloadSpec;

/// A fresh scratch directory under the system temp dir, unique per test.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("td-exp-cache-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Every cached result file (excluding the manifest) with its exact bytes.
fn result_files(root: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    let mut out = BTreeMap::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let entries = match fs::read_dir(&dir) {
            Ok(e) => e,
            Err(_) => continue,
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.file_name().is_some_and(|n| n != "manifest.json") {
                let bytes = fs::read(&path).expect("cached result readable");
                out.insert(path, bytes);
            }
        }
    }
    out
}

fn ids(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

#[test]
fn warm_rerun_hits_cache_and_leaves_bytes_untouched() {
    let dir = scratch("warm");
    let cfg = ExpConfig::quick();

    let cold = exp::run(&cfg, &ids(&["e17"]), &dir, false).expect("cold run");
    assert!(!cold.units.is_empty());
    assert_eq!(cold.hits(), 0, "cold cache cannot hit");
    assert_eq!(cold.misses(), cold.units.len());
    assert!(cold.units.iter().all(|u| u.status == UnitStatus::Ran));

    let before = result_files(&dir);
    assert_eq!(before.len(), cold.units.len(), "one file per configuration");
    assert!(dir.join("manifest.json").is_file());

    let warm = exp::run(&cfg, &ids(&["e17"]), &dir, false).expect("warm run");
    assert_eq!(warm.misses(), 0, "warm rerun must execute zero configs");
    assert_eq!(warm.hits(), cold.units.len());
    assert!(warm.units.iter().all(|u| u.status == UnitStatus::Hit));

    let after = result_files(&dir);
    assert_eq!(before, after, "warm rerun must not rewrite cached results");

    // The same keys resolve on both passes, in the same order.
    let cold_keys: Vec<u64> = cold.units.iter().map(|u| u.key).collect();
    let warm_keys: Vec<u64> = warm.units.iter().map(|u| u.key).collect();
    assert_eq!(cold_keys, warm_keys);

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn force_reexecutes_over_a_warm_cache() {
    let dir = scratch("force");
    let cfg = ExpConfig::quick();

    let cold = exp::run(&cfg, &ids(&["e16"]), &dir, false).expect("cold run");
    let forced = exp::run(&cfg, &ids(&["e16"]), &dir, true).expect("forced run");
    assert_eq!(forced.units.len(), cold.units.len());
    assert_eq!(forced.hits(), 0, "--force must not serve cached results");
    assert!(forced.units.iter().all(|u| u.status == UnitStatus::Forced));

    // The manifest on disk records the forced statuses.
    let manifest = fs::read_to_string(dir.join("manifest.json")).expect("manifest");
    assert!(manifest.contains("\"force\":true"));
    assert!(manifest.contains("\"status\":\"forced\""));
    assert!(!manifest.contains("\"status\":\"hit\""));

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_cached_result_is_a_miss_and_render_recovers() {
    let dir = scratch("corrupt");
    let cfg = ExpConfig::quick();

    let cold = exp::run(&cfg, &ids(&["e17"]), &dir, false).expect("cold run");
    let victim = exp::result_path(&dir, "e17", cold.units[0].key);
    let intact = fs::read_to_string(&victim).expect("cached result");
    fs::write(&victim, &intact[..intact.len() / 2]).expect("truncate");

    let warm = exp::run(&cfg, &ids(&["e17"]), &dir, false).expect("warm run");
    assert_eq!(warm.misses(), 1, "only the corrupt file re-executes");
    assert_eq!(warm.units[0].status, UnitStatus::Ran);
    assert!(warm.units[1..].iter().all(|u| u.status == UnitStatus::Hit));
    assert_eq!(
        fs::read_to_string(&victim).expect("rewritten"),
        intact,
        "the re-executed result replaces the corrupt file"
    );
    exp::render(&cfg, &ids(&["e17"]), &dir).expect("render after recovery");

    // Writes go through a temp file and a rename: none is left behind.
    assert!(!victim.with_extension("json.tmp").exists());

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn changing_seed_or_grid_misses_the_cache() {
    let dir = scratch("components");
    let cfg = ExpConfig::quick();

    let base = exp::run(&cfg, &ids(&["e21"]), &dir, false).expect("base run");
    let n = base.units.len();

    // A different seed is a different configuration: nothing hits.
    let reseeded = ExpConfig {
        seed: cfg.seed + 1,
        ..cfg.clone()
    };
    let run2 = exp::run(&reseeded, &ids(&["e21"]), &dir, false).expect("reseeded run");
    assert_eq!(run2.hits(), 0, "seed is part of the cache key");
    assert_eq!(result_files(&dir).len(), 2 * n);

    // A different executor grid (threads) is a different configuration too.
    let regridded = ExpConfig {
        threads: cfg.threads + 2,
        ..cfg.clone()
    };
    let run3 = exp::run(&regridded, &ids(&["e21"]), &dir, false).expect("regridded run");
    assert_eq!(run3.hits(), 0, "executor grid is part of the cache key");
    assert_eq!(result_files(&dir).len(), 3 * n);

    // And the original configuration still hits every one of its results.
    let warm = exp::run(&cfg, &ids(&["e21"]), &dir, false).expect("warm base run");
    assert_eq!(warm.misses(), 0);

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn schema_version_is_part_of_the_key() {
    let a = canonical_key_string("e17", "grid:size=8:seed=42", "sequential", 42, 3, VERSION);
    let b = canonical_key_string(
        "e17",
        "grid:size=8:seed=42",
        "sequential",
        42,
        3,
        VERSION + 1,
    );
    assert_ne!(a, b);
    assert_ne!(fnv1a64(a.as_bytes()), fnv1a64(b.as_bytes()));
}

#[test]
fn key_string_format_is_pinned() {
    // The canonical key string is an on-disk contract: changing it
    // invalidates every cache. Pin the exact spelling.
    assert_eq!(
        canonical_key_string("e17", "grid:size=8:seed=42", "sequential", 7, 3, 1),
        "td-exp/v1|v=1|exp=e17|spec=grid:size=8:seed=42|grid=sequential|seed=7|repeat=3"
    );
    // FNV-1a 64 known vectors (offset basis, and "a").
    assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
}

/// Builds a realistic key-component tuple from sampled indices. Spec
/// strings come from the real [`WorkloadSpec`] printer so they exercise the
/// actual canonical forms the registry produces.
#[allow(clippy::too_many_arguments)] // one slot per sampled key component
fn key_components(
    exp_i: usize,
    family_i: usize,
    size: u32,
    spec_seed: u64,
    grid_i: usize,
    seed: u64,
    repeat: usize,
    version: u32,
) -> (String, String, String, u64, usize, u32) {
    const EXPS: [&str; 19] = [
        "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e12", "e14", "stress", "e15", "e16",
        "e17", "e18", "e19", "e21", "perf",
    ];
    const FAMILIES: [&str; 4] = ["grid", "torus", "rotor", "hypercube"];
    const GRIDS: [&str; 4] = [
        "sequential",
        "parallel(4)",
        "sharded(2,4)",
        "churn(1,1)+churn(4,4)",
    ];
    let spec = WorkloadSpec::parse(&format!(
        "{}:size={size}:seed={spec_seed}",
        FAMILIES[family_i]
    ))
    .expect("valid spec")
    .to_string();
    (
        EXPS[exp_i].to_string(),
        spec,
        GRIDS[grid_i].to_string(),
        seed,
        repeat,
        version,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Injectivity: two component tuples map to the same canonical key
    /// string exactly when they are equal. (The `|` separator can appear in
    /// no component, so the joined form cannot alias.)
    #[test]
    fn canonical_key_is_injective(
        exp_a in 0usize..19, fam_a in 0usize..4, size_a in 3u32..9, sseed_a in 0u64..1000,
        grid_a in 0usize..4, seed_a in 0u64..1000, rep_a in 1usize..4, ver_a in 1u32..3,
        exp_b in 0usize..19, fam_b in 0usize..4, size_b in 3u32..9, sseed_b in 0u64..1000,
        grid_b in 0usize..4, seed_b in 0u64..1000, rep_b in 1usize..4, ver_b in 1u32..3,
    ) {
        let a = key_components(exp_a, fam_a, size_a, sseed_a, grid_a, seed_a, rep_a, ver_a);
        let b = key_components(exp_b, fam_b, size_b, sseed_b, grid_b, seed_b, rep_b, ver_b);
        let ka = canonical_key_string(&a.0, &a.1, &a.2, a.3, a.4, a.5);
        let kb = canonical_key_string(&b.0, &b.1, &b.2, b.3, b.4, b.5);
        prop_assert_eq!(a == b, ka == kb, "keys {} / {}", ka, kb);
    }

    /// Stability: equivalent workload specs spelled with their parameters
    /// in any order canonicalize to the same spec string, hence the same
    /// cache key.
    #[test]
    fn key_is_stable_across_param_reorderings(
        size in 4u32..10,
        seed in 0u64..1000,
        levels in 1u32..8,
        delta in 1u32..6,
        density in 1u32..100,
        shuffle in 0usize..24,
    ) {
        // "layered" declares levels, delta, density_pct in that order; feed
        // the parser a permuted spelling and check the canonical form.
        let mut parts = [
            format!("size={size}"),
            format!("seed={seed}"),
            format!("levels={levels}"),
            format!("delta={delta}"),
            format!("density_pct={density}"),
        ];
        // Apply one of the permutations of the first four slots.
        let perm = shuffle;
        parts.swap(0, perm % 5);
        parts.swap(1, (perm / 5) % 5);
        let permuted = format!("layered:{}", parts.join(":"));
        let canonical = format!(
            "layered:size={size}:seed={seed}:levels={levels}:delta={delta}:density_pct={density}"
        );

        let from_permuted = WorkloadSpec::parse(&permuted).expect("valid permuted spec");
        let from_canonical = WorkloadSpec::parse(&canonical).expect("valid canonical spec");
        prop_assert_eq!(from_permuted.to_string(), from_canonical.to_string());

        let key_a = fnv1a64(
            canonical_key_string("e17", &from_permuted.to_string(), "sequential", 42, 3, VERSION)
                .as_bytes(),
        );
        let key_b = fnv1a64(
            canonical_key_string("e17", &from_canonical.to_string(), "sequential", 42, 3, VERSION)
                .as_bytes(),
        );
        prop_assert_eq!(key_a, key_b);
    }
}

//! `BENCHMARK.json` and `README.md` must name exactly what the code emits.

use nilicon_benchmark::defs;
use nilicon_benchmark::workloads::Workload;
use serde::Value;
use std::path::Path;

fn read(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn names(v: &Value, key: &str) -> Vec<(String, String)> {
    v.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks `{key}`"))
        .iter()
        .map(|m| {
            let s = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            (s("name"), s("unit"))
        })
        .collect()
}

#[test]
fn benchmark_json_lists_what_the_contract_runs_print() {
    let v = serde_json::value_from_str(&read("../BENCHMARK.json")).expect("valid JSON");
    let e2e: Vec<(String, String)> = defs::contract_end_to_end()
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect();
    assert_eq!(names(&v, "end_to_end"), e2e);
    let layer: Vec<(String, String)> = defs::contract_per_layer()
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(names(&v, "per_layer"), layer);
    for m in v.get("end_to_end").and_then(Value::as_array).unwrap() {
        let name = m.get("name").and_then(Value::as_str).unwrap();
        let better = m.get("better").and_then(Value::as_str).unwrap();
        let def = defs::end_to_end(name).unwrap();
        assert_eq!(better == "higher", def.higher_is_better, "{name}");
        let bound = m.get("bound").and_then(Value::as_float).unwrap();
        assert!(bound > 0.0 && bound <= 0.25, "{name}: bound {bound}");
        if def.clock == defs::Clock::Host {
            assert_eq!(
                bound, def.same_seed_bound,
                "{name}: `check` uses the same bound"
            );
        }
    }
    let workloads: Vec<(String, String)> = v
        .get("workloads")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|w| {
            let s = |k: &str| w.get(k).and_then(Value::as_str).unwrap().to_string();
            (s("name"), s("why"))
        })
        .collect();
    let want: Vec<(String, String)> = Workload::ALL
        .iter()
        .map(|w| (w.name().to_string(), w.why().to_string()))
        .collect();
    assert_eq!(workloads, want);
    assert!(want.iter().all(|(_, why)| why.len() <= 200));
}

#[test]
fn readme_names_every_workload_and_metric() {
    let readme = read("README.md");
    for w in Workload::ALL {
        assert!(readme.contains(w.name()), "README lacks {}", w.name());
    }
    for m in defs::END_TO_END {
        assert!(readme.contains(m.name), "README lacks {}", m.name);
    }
    for m in defs::PER_LAYER {
        assert!(readme.contains(m.name), "README lacks {}", m.name);
    }
}

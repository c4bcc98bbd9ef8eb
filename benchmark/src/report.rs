//! The metric tables (names and units, mirrored in `BENCHMARK.json`)
//! and the result a run prints.

use std::collections::BTreeMap;

/// `(name, unit)` of every end-to-end metric (what each one is:
/// `benchmark/README.md`). Every workload reports every one of them
/// on an untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("container_bytes", "B"),
    ("index_bytes", "B"),
    ("peak_rss_mb", "MB"),
    ("qps", "1/s"),
    ("query_p50_us", "us"),
    ("query_p99_us", "us"),
];

/// `(name, unit)` of every per-layer metric, `<module>.<metric>`.
/// Every workload reports every one of them on a traced run; a layer
/// the workload does not pass through reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("datagen.generate_s", "s"),
    ("store.build_s", "s"),
    ("filters.build_s", "s"),
    ("sharded.build_s", "s"),
    ("filters.candidates_us", "us"),
    ("filters.lists_probed", "count"),
    ("filters.postings_scanned", "count"),
    ("filters.candidates", "count"),
    ("filters.ns_per_posting", "ns"),
    ("filters.precision", "ratio"),
    ("verify.verify_us", "us"),
    ("verify.ns_per_candidate", "ns"),
    ("verify.results", "count"),
    ("engine.search_us", "us"),
    ("engine.self_us", "us"),
    ("engine.pi1_ns", "ns"),
    ("engine.pi2_ns", "ns"),
    ("engine.model_r2", "ratio"),
    ("index.cut_ns", "ns"),
    ("index.decode_ns_per_id", "ns"),
    ("index.bytes_per_posting", "B"),
    ("index.id_bytes_per_posting", "B"),
    ("sharded.shards_probed", "count"),
    ("sharded.fanout_ratio", "ratio"),
    ("sharded.overhead_us", "us"),
    ("sharded.merge_us", "us"),
    ("http.parse_ns", "ns"),
    ("http.encode_ns", "ns"),
    ("batcher.submit_us", "us"),
    ("batcher.overhead_us", "us"),
    ("batcher.mean_batch", "count"),
    ("batcher.max_batch", "count"),
    ("server.handler_p50_us", "us"),
    ("server.wire_p50_us", "us"),
    ("server.unattributed_us", "us"),
    ("server.attributed_share", "ratio"),
    ("server.shed_share", "ratio"),
    ("live.push_ns", "ns"),
    ("live.overlay_us", "us"),
    ("live.refresh_s", "s"),
    ("live.fresh_build_s", "s"),
    ("live.refresh_over_fresh", "ratio"),
    ("live.scheme_reused_share", "ratio"),
    ("persist.save_s", "s"),
    ("persist.serialize_s", "s"),
    ("persist.write_s", "s"),
    ("persist.load_stream_s", "s"),
    ("persist.load_buffered_s", "s"),
    ("persist.bytes_per_object", "B"),
    ("container.crc_gbps", "GB/s"),
    ("container.parse_s", "s"),
    ("trace.overhead_share", "ratio"),
];

/// True when `name` fits the metric-name grammar: 1 to 64 of
/// `[A-Za-z0-9_.-]`, starting with a letter or a digit.
pub fn valid_metric_name(name: &str) -> bool {
    let mut bytes = name.bytes();
    bytes.next().is_some_and(|b| b.is_ascii_alphanumeric())
        && name.len() <= 64
        && bytes.all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// True when `unit` fits the unit grammar: 1 to 16 of
/// `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
}

/// What a run found: the checks it made and the values it measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations whose result was checked (gate and measured phase).
    pub attempted: usize,
    /// Wrong answers, non-2xx responses and transport errors.
    pub failed: usize,
    values: BTreeMap<&'static str, (f64, Option<usize>)>,
    /// Lines for the reader that are not metrics.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, (value, None));
    }

    /// Records a metric value and the number of samples behind it.
    pub fn set_sampled(&mut self, name: &'static str, value: f64, samples: usize) {
        self.values.insert(name, (value, Some(samples)));
    }

    /// A value recorded earlier in the run.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|v| v.0)
    }

    /// Counts `n` checked operations of which `bad` were wrong.
    pub fn checked(&mut self, n: usize, bad: usize) {
        self.attempted += n;
        self.failed += bad;
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    fn table(traced: bool) -> &'static [(&'static str, &'static str)] {
        if traced {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Prints the notes, every metric of the run's table by name with
    /// its unit, and — as the last line — the result object.
    ///
    /// # Panics
    /// If an end-to-end metric was never set or any value is not
    /// finite: both are bugs in the benchmark, not measurements.
    pub fn print(&self, workload: &str, traced: bool, quick: bool) {
        for n in &self.notes {
            println!("{n}");
        }
        let label = if quick {
            " [--quick: not for comparison]"
        } else {
            ""
        };
        println!(
            "workload {workload} ({}){label}",
            if traced {
                "per-layer, traced run"
            } else {
                "end-to-end"
            }
        );
        let mut json = Vec::new();
        for &(name, unit) in Self::table(traced) {
            let (value, samples) = match self.values.get(name) {
                Some(&v) => v,
                None if traced => (0.0, None),
                None => panic!("end-to-end metric {name} was not measured"),
            };
            assert!(value.is_finite(), "metric {name} is not finite");
            assert!(
                valid_metric_name(name) && valid_unit(unit),
                "{name} [{unit}]"
            );
            match samples {
                Some(n) => println!("  {name:<28} {value:>16.4} {unit:<6} (n={n})"),
                None => println!("  {name:<28} {value:>16.4} {unit}"),
            }
            json.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            json.join(", ")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    #[test]
    fn metric_name_grammar() {
        for good in [
            "qps",
            "query_p99_us",
            "filters.ns_per_posting",
            "a-b.c_d",
            "9lives",
        ] {
            assert!(valid_metric_name(good), "{good}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            ".qps",
            "_x",
            "-x",
            "q ps",
            "qps/s",
            "µs",
            "a,b",
            long.as_str(),
        ] {
            assert!(!valid_metric_name(bad), "{bad:?}");
        }
        assert!(valid_metric_name(&"x".repeat(64)));
    }

    #[test]
    fn unit_grammar() {
        for good in ["s", "us", "1/s", "GB/s", "%", "count", "B"] {
            assert!(valid_unit(good), "{good}");
        }
        for bad in ["", "µs", "per second", "12345678901234567"] {
            assert!(!valid_unit(bad), "{bad:?}");
        }
    }

    #[test]
    fn tables_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_metric_name(name), "{name}");
            assert!(valid_unit(unit), "{name}: {unit}");
            assert!(seen.insert(name), "{name} is listed twice");
        }
        for (name, _) in PER_LAYER {
            assert!(name.contains('.'), "{name} must be <module>.<metric>");
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
    }

    /// `BENCHMARK.json` is what the driver reads; the tables here are
    /// what the binary prints. They must name the same metrics with
    /// the same units, in the same order, and the workloads must match.
    #[test]
    fn tables_match_benchmark_json() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str| -> Vec<(&str, &str)> {
            doc.get(key)
                .and_then(Value::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(Value::as_str).unwrap(),
                        m.get("unit").and_then(Value::as_str).unwrap(),
                    )
                })
                .collect()
        };
        assert_eq!(listed("end_to_end"), END_TO_END);
        assert_eq!(listed("per_layer"), PER_LAYER);
        for m in doc.get("end_to_end").and_then(Value::as_array).unwrap() {
            let bound = m.get("bound").and_then(Value::as_f64).unwrap();
            assert!((0.0..=0.25).contains(&bound), "{m:?}");
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_f64),
            Some(crate::setup::RUN_SECONDS)
        );
    }
}

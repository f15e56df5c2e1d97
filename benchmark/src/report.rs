//! `results.json`: the schema, the provenance block, and `--compare`.

use crate::live::LiveResult;
use crate::metrics::{self, Better, MetricDef, Values};
use minos_obs::json::write_json_str;
use minos_obs::JsonValue;

pub const SCHEMA_VERSION: u64 = 1;

/// A JSON document under construction. (`minos_obs::JsonValue` is the
/// reader; it cannot be built from numbers.)
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(u64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Compact, on one line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// One member or element per line, for files people diff.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>) {
        let newline = |out: &mut String, depth: usize| {
            if indent.is_some() {
                out.push('\n');
                out.push_str(&" ".repeat(depth));
            }
        };
        let depth = indent.unwrap_or(0);
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => out.push_str(&n.to_string()),
            // Every digit measured; non-finite values have no JSON form.
            Json::Num(v) if v.is_finite() => out.push_str(&v.to_string()),
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_json_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    item.write(out, indent.map(|d| d + 1));
                }
                if !items.is_empty() {
                    newline(out, depth);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    write_json_str(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent.map(|d| d + 1));
                }
                if !members.is_empty() {
                    newline(out, depth);
                }
                out.push('}');
            }
        }
    }
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn file_line(path: &str, prefix: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()?.lines().find_map(|l| {
        l.strip_prefix(prefix)
            .map(|v| v.trim_matches([' ', '\t', ':']).to_string())
    })
}

pub struct RunInfo<'a> {
    pub repo_root: &'a std::path::Path,
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
    pub traced: bool,
    pub server_args_override: &'a str,
}

/// Where, from what and how a result was measured.
pub fn provenance(info: &RunInfo) -> Json {
    let root = info.repo_root.display().to_string();
    // A checkout without `.git` (the driver's) has no commit to name.
    let commit = command_line("git", &["-C", &root, "rev-parse", "HEAD"]);
    let dirty = command_line("git", &["-C", &root, "status", "--porcelain"]).map(|s| !s.is_empty());
    Json::obj([
        ("harness_version", Json::str(env!("CARGO_PKG_VERSION"))),
        ("git_commit", commit.map_or(Json::Null, Json::Str)),
        ("git_dirty", dirty.map_or(Json::Null, Json::Bool)),
        (
            "nproc",
            Json::Int(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        (
            "kernel",
            file_line("/proc/sys/kernel/osrelease", "").map_or(Json::Null, Json::Str),
        ),
        (
            "cpu_model",
            file_line("/proc/cpuinfo", "model name").map_or(Json::Null, Json::Str),
        ),
        ("build_profile", Json::str("release")),
        ("pinned", Json::Bool(false)),
        ("seed", Json::Int(info.seed)),
        ("seconds", Json::Num(info.seconds)),
        ("quick", Json::Bool(info.quick)),
        ("traced", Json::Bool(info.traced)),
        ("server_args_override", Json::str(info.server_args_override)),
    ])
}

fn metric_objects(defs: &[MetricDef], values: &Values) -> Json {
    Json::obj(defs.iter().filter_map(|d| {
        let value = *values.get(&d.name)?;
        let mut members = vec![
            ("value", Json::Num(value)),
            ("unit", Json::str(d.unit)),
            ("better", Json::str(d.better.as_str())),
        ];
        if let Some(bound) = d.bound {
            members.push(("bound", Json::Num(bound)));
        }
        Some((d.name.clone(), Json::obj(members)))
    }))
}

/// One workload's entry in `results.json`.
pub fn workload_report(live: &LiveResult) -> Json {
    Json::obj([
        (
            "server_args",
            Json::Arr(live.server_args.iter().map(Json::str).collect()),
        ),
        ("attempted", Json::Int(live.attempted)),
        ("failed", Json::Int(live.failed)),
        ("noisy", Json::Bool(live.noisy)),
        (
            "problems",
            Json::Arr(live.problems.iter().map(Json::str).collect()),
        ),
        (
            "phases",
            Json::Arr(
                live.phases
                    .iter()
                    .map(|p| {
                        Json::obj([
                            ("name", Json::str(p.name)),
                            ("wall_s", Json::Num(p.wall_s)),
                            ("steal_frac", Json::Num(p.steal_frac)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "samples",
            Json::obj(live.samples.iter().map(|(k, n)| (*k, Json::Int(*n)))),
        ),
        (
            "end_to_end",
            metric_objects(&metrics::end_to_end(), &live.end_to_end),
        ),
        (
            "per_layer",
            metric_objects(&metrics::per_layer(), &live.layers),
        ),
    ])
}

pub fn results(provenance: Json, workloads: Vec<(String, Json)>) -> Json {
    Json::obj([
        ("schema", Json::Int(SCHEMA_VERSION)),
        ("provenance", provenance),
        ("workloads", Json::Obj(workloads)),
    ])
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// Worse than the bound, but one of the two runs was flagged
    /// `noisy` (the hypervisor stole over 15 % of the host's CPU time
    /// in its loaded phase): two such runs cannot tell.
    Unresolved,
}

/// How much worse `b` is than `a`, as a share of `a`; negative when
/// better.
pub fn worsening(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

pub fn verdict(worse_by: f64, bound: f64, noisy: bool) -> Verdict {
    if worse_by <= bound {
        Verdict::Ok
    } else if noisy {
        Verdict::Unresolved
    } else {
        Verdict::Worse
    }
}

fn load(path: &str) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = JsonValue::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    match doc
        .get("schema")
        .and_then(JsonValue::as_num)
        .and_then(|n| n.as_u64())
    {
        Some(SCHEMA_VERSION) => Ok(doc),
        other => Err(format!(
            "{path}: schema {other:?}, this harness reads {SCHEMA_VERSION}"
        )),
    }
}

fn field_f64(v: &JsonValue, key: &str) -> Option<f64> {
    v.get(key)?.as_num().map(|n| n.as_f64())
}

/// Prints one row per workload × end-to-end metric of `a` against `b`.
/// Returns how many rows are `worse`. Refuses results that were not
/// measured the same way.
pub fn compare(path_a: &str, path_b: &str) -> Result<usize, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let prov = |doc: &JsonValue, key: &str| {
        doc.get("provenance")
            .and_then(|p| p.get(key))
            .cloned()
            .ok_or_else(|| format!("no provenance.{key}"))
    };
    for key in ["seed", "quick", "seconds", "traced", "server_args_override"] {
        let (va, vb) = (prov(&a, key)?, prov(&b, key)?);
        if va != vb {
            let show = |v: &JsonValue| match v {
                JsonValue::Num(n) => n.raw().to_string(),
                JsonValue::Str(s) => format!("{s:?}"),
                JsonValue::Bool(b) => b.to_string(),
                other => format!("{other:?}"),
            };
            return Err(format!(
                "not comparable: provenance.{key} is {} vs {}",
                show(&va),
                show(&vb)
            ));
        }
    }
    if prov(&a, "quick")? != JsonValue::Bool(false) {
        return Err("not comparable: --quick results never are".into());
    }
    fn workloads(doc: &JsonValue) -> Result<&[(String, JsonValue)], String> {
        doc.get("workloads")
            .and_then(JsonValue::as_obj)
            .ok_or_else(|| "no workloads".to_string())
    }
    let (wa, wb) = (workloads(&a)?, workloads(&b)?);
    println!(
        "{:<12} {:<24} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    let mut worse = 0;
    for (name, ra) in wa {
        let rb = wb
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, r)| r)
            .ok_or_else(|| format!("workload {name} missing from {path_b}"))?;
        if ra.get("server_args") != rb.get("server_args") {
            return Err(format!(
                "not comparable: {name} ran with different server arguments"
            ));
        }
        let noisy = [ra, rb]
            .iter()
            .any(|r| r.get("noisy") == Some(&JsonValue::Bool(true)));
        for d in metrics::end_to_end() {
            let metric = |r: &JsonValue| r.get("end_to_end").and_then(|m| m.get(&d.name)).cloned();
            let (Some(ma), Some(mb)) = (metric(ra), metric(rb)) else {
                return Err(format!("{name}: metric {} missing", d.name));
            };
            let (Some(va), Some(vb)) = (field_f64(&ma, "value"), field_f64(&mb, "value")) else {
                return Err(format!("{name}: metric {} has no value", d.name));
            };
            let bound = d.bound.expect("end-to-end metrics carry a bound");
            let worse_by = worsening(d.better, va, vb);
            let v = verdict(worse_by, bound, noisy);
            if v == Verdict::Worse {
                worse += 1;
            }
            println!(
                "{name:<12} {:<24} {va:>14.3} {vb:>14.3} {:>+8.1}% {:>6.0}%  {}",
                d.name,
                worse_by * 100.0,
                bound * 100.0,
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    Ok(worse)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::live::PhaseInfo;

    fn sample_live() -> LiveResult {
        let end_to_end: Values = metrics::end_to_end()
            .iter()
            .enumerate()
            .map(|(i, d)| (d.name.clone(), 1.5 + i as f64))
            .collect();
        LiveResult {
            end_to_end,
            layers: metrics::per_layer()
                .iter()
                .map(|d| (d.name.clone(), 0.25))
                .collect(),
            samples: vec![("loaded_small", 1000)],
            phases: vec![PhaseInfo {
                name: "loaded",
                wall_s: 30.0,
                steal_frac: 0.06,
            }],
            server_args: vec!["--cores".into(), "2".into()],
            attempted: 1000,
            failed: 0,
            problems: vec!["a \"quoted\" problem".into()],
            noisy: false,
        }
    }

    #[test]
    fn results_schema_round_trips_through_the_reader() {
        let live = sample_live();
        let info = RunInfo {
            repo_root: std::path::Path::new("."),
            seed: 42,
            seconds: 38.0,
            quick: false,
            traced: false,
            server_args_override: "",
        };
        let doc = results(
            provenance(&info),
            vec![("etc_read".into(), workload_report(&live))],
        );
        for text in [doc.render(), doc.render_pretty()] {
            let parsed = JsonValue::parse(&text).expect("valid JSON");
            assert_eq!(
                parsed
                    .get("schema")
                    .and_then(|s| s.as_num())
                    .and_then(|n| n.as_u64()),
                Some(SCHEMA_VERSION)
            );
            let prov = parsed.get("provenance").expect("provenance");
            for key in [
                "harness_version",
                "git_commit",
                "git_dirty",
                "nproc",
                "kernel",
                "cpu_model",
                "build_profile",
                "pinned",
                "seed",
                "seconds",
                "quick",
                "traced",
                "server_args_override",
            ] {
                assert!(prov.get(key).is_some(), "provenance.{key}");
            }
            let w = parsed
                .get("workloads")
                .and_then(|w| w.get("etc_read"))
                .expect("workload");
            for key in [
                "server_args",
                "attempted",
                "failed",
                "noisy",
                "problems",
                "phases",
                "samples",
                "end_to_end",
                "per_layer",
            ] {
                assert!(w.get(key).is_some(), "workload.{key}");
            }
            let p50 = w
                .get("end_to_end")
                .and_then(|m| m.get("small_p50_us"))
                .expect("metric");
            assert_eq!(field_f64(p50, "value"), Some(3.5));
            assert_eq!(p50.get("unit").and_then(|u| u.as_str()), Some("us"));
            assert_eq!(p50.get("better").and_then(|u| u.as_str()), Some("lower"));
            assert_eq!(field_f64(p50, "bound"), Some(0.25));
            let layers = w.get("per_layer").and_then(|m| m.as_obj()).expect("layers");
            assert_eq!(layers.len(), metrics::per_layer().len());
        }
    }

    #[test]
    fn numbers_keep_every_digit_and_non_finite_is_null() {
        assert_eq!(Json::Num(0.1 + 0.2).render(), "0.30000000000000004");
        assert_eq!(Json::Num(2.0).render(), "2");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        assert!((worsening(Better::Lower, 100.0, 112.0) - 0.12).abs() < 1e-12);
        assert!((worsening(Better::Higher, 100.0, 88.0) - 0.12).abs() < 1e-12);
        assert!(worsening(Better::Higher, 100.0, 120.0) < 0.0);
        assert_eq!(verdict(0.05, 0.10, false), Verdict::Ok);
        assert_eq!(verdict(-0.30, 0.10, true), Verdict::Ok);
        assert_eq!(verdict(0.12, 0.10, false), Verdict::Worse);
        assert_eq!(verdict(0.12, 0.10, true), Verdict::Unresolved);
    }
}

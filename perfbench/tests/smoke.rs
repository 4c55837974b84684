//! Smoke test of the benchmark: tiny shapes of every workload, run
//! through the command line, untraced and traced. Checks the result
//! line against the schema and the metric catalog in `BENCHMARK.json`,
//! that the oracle gate ran and passed, that the span log is written,
//! and the traced run's layer invariants.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            _ => panic!("not an object"),
        }
    }
    fn num(&self) -> f64 {
        match self {
            Json::Num(v) => *v,
            other => panic!("not a number: {other:?}"),
        }
    }
    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }
    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            other => panic!("not an array: {other:?}"),
        }
    }
    fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(m) => m.keys().map(String::as_str).collect(),
            other => panic!("not an object: {other:?}"),
        }
    }
}

/// A strict recursive-descent JSON parser (enough for the result line,
/// the span log and `BENCHMARK.json`).
struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing characters after JSON value");
        v
    }
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }
    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.s.get(self.i),
            Some(&c),
            "expected {:?} at {}",
            c as char,
            self.i
        );
        self.i += 1;
    }
    fn lit(&mut self, word: &str, v: Json) -> Json {
        assert!(
            self.s[self.i..].starts_with(word.as_bytes()),
            "bad literal at {}",
            self.i
        );
        self.i += word.len();
        v
    }
    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(m);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.string() else {
                        unreachable!()
                    };
                    self.eat(b':');
                    let v = self.value();
                    assert!(m.insert(k.clone(), v).is_none(), "duplicate key {k}");
                    self.ws();
                    if self.s[self.i] == b',' {
                        self.i += 1;
                    } else {
                        self.eat(b'}');
                        return Json::Obj(m);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut a = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(a);
                }
                loop {
                    a.push(self.value());
                    self.ws();
                    if self.s[self.i] == b',' {
                        self.i += 1;
                    } else {
                        self.eat(b']');
                        return Json::Arr(a);
                    }
                }
            }
            b'"' => self.string(),
            b't' => self.lit("true", Json::Bool(true)),
            b'f' => self.lit("false", Json::Bool(false)),
            b'n' => self.lit("null", Json::Null),
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-0123456789.eE".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).expect("ascii");
                Json::Num(
                    text.parse()
                        .unwrap_or_else(|_| panic!("bad number {text:?}")),
                )
            }
        }
    }
    fn string(&mut self) -> Json {
        self.eat(b'"');
        let mut out = Vec::new();
        loop {
            let c = self.s[self.i];
            self.i += 1;
            match c {
                b'"' => return Json::Str(String::from_utf8(out).expect("utf-8")),
                b'\\' => {
                    let e = self.s[self.i];
                    self.i += 1;
                    match e {
                        b'u' => {
                            let hex = std::str::from_utf8(&self.s[self.i..self.i + 4]).unwrap();
                            let c = char::from_u32(u32::from_str_radix(hex, 16).unwrap()).unwrap();
                            self.i += 4;
                            out.extend_from_slice(c.to_string().as_bytes());
                        }
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        other => out.push(other),
                    }
                }
                c => out.push(c),
            }
        }
    }
}

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn out_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `BENCHMARK.json` at the repository root.
fn benchmark_json() -> Json {
    let path = manifest_dir().join("../BENCHMARK.json");
    Parser::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
}

/// Runs the benchmark binary; returns exit code, stdout lines, and
/// the parsed last line.
fn bench(workload: &str, trace: bool, out: &Path) -> (i32, Vec<String>, Json) {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }, "--scale", "tiny"])
        .arg("--out-dir")
        .arg(out)
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    let lines: Vec<String> = stdout.lines().map(str::to_string).collect();
    let last = Parser::parse(lines.last().expect("some output"));
    (output.status.code().unwrap_or(-1), lines, last)
}

/// The result line has exactly the four keys, and its metrics are
/// exactly the catalog's, with the catalog's units.
fn check_schema(result: &Json, catalog: &Json) {
    assert_eq!(result.keys(), ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(result.get("correct"), &Json::Bool(true), "{result:?}");
    assert_eq!(result.get("failed").num(), 0.0);
    let attempted = result.get("attempted").num();
    assert!(attempted >= 1.0 && attempted.fract() == 0.0);
    let metrics = result.get("metrics");
    let want: Vec<(&str, &str)> = catalog
        .arr()
        .iter()
        .map(|m| (m.get("name").str(), m.get("unit").str()))
        .collect();
    let mut names: Vec<&str> = want.iter().map(|w| w.0).collect();
    names.sort_unstable();
    assert_eq!(metrics.keys(), names);
    for (name, unit) in want {
        let m = metrics.get(name);
        assert_eq!(m.keys(), ["unit", "value"]);
        assert_eq!(m.get("unit").str(), unit, "{name}");
        assert!(m.get("value").num().is_finite(), "{name}");
    }
}

fn metric(result: &Json, name: &str) -> f64 {
    result.get("metrics").get(name).get("value").num()
}

#[test]
fn benchmark_json_lists_the_catalog() {
    let c = benchmark_json();
    let names = |key: &str| -> Vec<(String, String)> {
        c.get(key)
            .arr()
            .iter()
            .map(|m| {
                (
                    m.get("name").str().to_string(),
                    m.get("unit").str().to_string(),
                )
            })
            .collect()
    };
    let catalog = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(names("end_to_end"), catalog(perfbench::END_TO_END));
    assert_eq!(names("per_layer"), catalog(perfbench::PER_LAYER));
    let workloads: Vec<&str> = c
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    assert_eq!(workloads, ["churn", "grow", "roster"]);
    for m in c.get("end_to_end").arr() {
        let bound = m.get("bound").num();
        assert!(bound > 0.0 && bound <= 0.25);
        assert!(m.get("better").str() == "lower" || m.get("better").str() == "higher");
    }
}

#[test]
fn untraced_runs_pass_the_oracle_gate() {
    let c = benchmark_json();
    for w in ["churn", "grow", "roster"] {
        let (code, lines, result) = bench(w, false, &out_dir(&format!("untraced-{w}")));
        assert_eq!(code, 0, "{w}: {lines:#?}");
        check_schema(&result, c.get("end_to_end"));
        assert!(lines[0].starts_with("provenance: {"));
        Parser::parse(lines[0].trim_start_matches("provenance: "));
        assert!(lines.iter().any(|l| l.starts_with("durability:")), "{w}");
        for (name, _) in perfbench::END_TO_END {
            assert!(metric(&result, name) > 0.0, "{w}: {name} is 0");
        }
        // Asks and checkpoint probes were checked against the oracle.
        assert!(result.get("attempted").num() > 20.0, "{w}");
    }
}

#[test]
fn traced_runs_attribute_the_layers() {
    let c = benchmark_json();
    for w in ["churn", "grow", "roster"] {
        let dir = out_dir(&format!("traced-{w}"));
        let (code, lines, r) = bench(w, true, &dir);
        assert_eq!(code, 0, "{w}: {lines:#?}");
        check_schema(&r, c.get("per_layer"));
        assert!(
            lines.iter().any(|l| l.starts_with("layer breakdown")),
            "{w}"
        );
        let log = Parser::parse(
            &std::fs::read_to_string(dir.join(format!("trace-{w}-3.json"))).expect("span log"),
        );
        let spans = log.get("spans").arr();
        assert!(spans.iter().any(|s| s.get("name").str() == "session.apply"));
        assert!(metric(&r, "session.apply_ms") > 0.0);
        assert!(metric(&r, "trace.updates_per_s") > 0.0);
        match w {
            "churn" => {
                let parts: f64 = [
                    "sketch.update_ms",
                    "sketch.merge_ms",
                    "sketch.sample_ms",
                    "etf.join_ms",
                    "etf.split_ms",
                    "connectivity.self_ms",
                ]
                .iter()
                .map(|n| metric(&r, n))
                .sum();
                let total = metric(&r, "connectivity.apply_ms");
                assert!((parts - total).abs() <= 1e-6 * total.max(1.0));
                assert!(metric(&r, "etf.split_edges") > 0.0);
                assert!(metric(&r, "sketch.samples") > 0.0);
                assert!(metric(&r, "snapshot.bytes.sketch") > 0.0);
                assert!(lines.iter().any(|l| l.starts_with("Amdahl claim")));
            }
            "grow" => {
                assert_eq!(metric(&r, "sketch.merge_ms"), 0.0);
                assert_eq!(metric(&r, "etf.split_ms"), 0.0);
                assert!(metric(&r, "etf.join_edges") > 0.0);
            }
            _ => {
                assert!(metric(&r, "executor.critical_path_ms") <= metric(&r, "session.apply_ms"));
                assert!(metric(&r, "executor.serial_sum_ms") > 0.0);
                assert!(metric(&r, "executor.parallel_efficiency") > 0.0);
            }
        }
    }
}

#[test]
fn bad_arguments_exit_without_a_result() {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("benchmark runs");
    assert_eq!(output.status.code(), Some(2));
    assert!(output.stdout.is_empty());
}

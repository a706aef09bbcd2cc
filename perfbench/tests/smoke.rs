//! Smoke test: every workload of BENCHMARK.json, run at test scale with
//! tracing off and on, prints exactly the metrics BENCHMARK.json
//! declares for that mode, each with its declared unit, and no failed
//! op. Run with `cargo test --manifest-path perfbench/Cargo.toml`.

use std::collections::BTreeMap;
use std::process::Command;

/// A parsed JSON value (just enough JSON for BENCHMARK.json and the
/// benchmark's result line).
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
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key `{key}`")),
            other => panic!("not an object: {other:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("not a number: {other:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            other => panic!("not an array: {other:?}"),
        }
    }

    fn obj(&self) -> &BTreeMap<String, Json> {
        match self {
            Json::Obj(m) => m,
            other => panic!("not an object: {other:?}"),
        }
    }
}

fn parse(text: &str) -> Json {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value();
    p.ws();
    assert_eq!(p.i, p.s.len(), "trailing input in {text:?}");
    v
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
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
            "expected `{}` at {}",
            c as char,
            self.i
        );
        self.i += 1;
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
                    let Json::Str(k) = self.value() else {
                        panic!("object key at {}", self.i)
                    };
                    self.eat(b':');
                    let v = self.value();
                    assert!(m.insert(k.clone(), v).is_none(), "duplicate key `{k}`");
                    self.ws();
                    self.i += 1;
                    match self.s[self.i - 1] {
                        b',' => continue,
                        b'}' => return Json::Obj(m),
                        c => panic!("unexpected `{}` in object", c as char),
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
                    self.i += 1;
                    match self.s[self.i - 1] {
                        b',' => continue,
                        b']' => return Json::Arr(a),
                        c => panic!("unexpected `{}` in array", c as char),
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let mut out = String::new();
                loop {
                    let c = self.s[self.i];
                    self.i += 1;
                    match c {
                        b'"' => return Json::Str(out),
                        b'\\' => {
                            let e = self.s[self.i];
                            self.i += 1;
                            out.push(match e {
                                b'n' => '\n',
                                b't' => '\t',
                                b'"' | b'\\' | b'/' => e as char,
                                _ => panic!("unsupported escape `\\{}`", e as char),
                            });
                        }
                        _ => {
                            // Copy the UTF-8 sequence this byte starts.
                            let len = match c {
                                0x00..=0x7F => 1,
                                0xC0..=0xDF => 2,
                                0xE0..=0xEF => 3,
                                _ => 4,
                            };
                            let bytes = &self.s[self.i - 1..self.i - 1 + len];
                            out.push_str(std::str::from_utf8(bytes).expect("valid UTF-8"));
                            self.i += len - 1;
                        }
                    }
                }
            }
            b't' | b'f' | b'n' => {
                for (word, v) in [
                    ("true", Json::Bool(true)),
                    ("false", Json::Bool(false)),
                    ("null", Json::Null),
                ] {
                    if self.s[self.i..].starts_with(word.as_bytes()) {
                        self.i += word.len();
                        return v;
                    }
                }
                panic!("bad literal at {}", self.i)
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len()
                    && matches!(
                        self.s[self.i],
                        b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'
                    )
                {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).expect("ASCII");
                Json::Num(
                    text.parse()
                        .unwrap_or_else(|_| panic!("bad number `{text}`")),
                )
            }
        }
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/"))
}

fn run(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("perfbench runs")
}

#[test]
fn every_workload_prints_every_declared_metric_without_failures() {
    let bench = benchmark_json();
    for workload in bench.get("workloads").arr() {
        let name = workload.get("name").str();
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = run(&[
                "--workload",
                name,
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                trace,
                "--scale",
                "test",
            ]);
            let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
            assert!(
                out.status.success(),
                "{name} --trace {trace} failed:\n{stdout}\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let result = parse(stdout.lines().last().expect("a result line"));
            let keys: Vec<&String> = result.obj().keys().collect();
            assert_eq!(
                keys,
                ["attempted", "correct", "failed", "metrics"],
                "{name}"
            );
            assert_eq!(
                result.get("correct"),
                &Json::Bool(true),
                "{name} --trace {trace}"
            );
            assert_eq!(result.get("failed").num(), 0.0, "{name} --trace {trace}");
            assert!(result.get("attempted").num() >= 1.0);

            let metrics = result.get("metrics").obj();
            let declared = bench.get(section).arr();
            assert_eq!(
                metrics.len(),
                declared.len(),
                "{name} --trace {trace}: {keys:?}",
                keys = metrics.keys()
            );
            for m in declared {
                let metric = m.get("name").str();
                let got = metrics
                    .get(metric)
                    .unwrap_or_else(|| panic!("{name} --trace {trace} lacks {metric}"));
                assert_eq!(
                    got.get("unit").str(),
                    m.get("unit").str(),
                    "{name} {metric}"
                );
                assert!(got.get("value").num().is_finite(), "{name} {metric}");
            }
        }
    }
}

#[test]
fn simulated_and_static_metrics_repeat_for_a_seed() {
    let exact = |out: std::process::Output| {
        let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
        let result = parse(stdout.lines().last().expect("a result line"));
        let m = result.get("metrics");
        (
            m.get("sim_speedup_geomean").get("value").num(),
            m.get("code_insts").get("value").num(),
        )
    };
    let args = [
        "--workload",
        "compile",
        "--seed",
        "7",
        "--seconds",
        "1",
        "--scale",
        "test",
    ];
    assert_eq!(exact(run(&args)), exact(run(&args)));
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--seed", "1"],
        &["--workload", "compile", "--trace", "2"],
    ] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}

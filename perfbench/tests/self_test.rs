//! Smoke-size runs of every workload, untraced and traced: each must
//! exit 0 and print, as its last line, a result whose metric names are
//! exactly those `BENCHMARK.json` lists for that mode, each with a unit.

use std::collections::BTreeMap;
use std::process::Command;

/// A parsed JSON value (only what the benchmark's files use).
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
            other => panic!("{other:?} is not an object"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("{other:?} is not a string"),
        }
    }
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
            "expected {:?} at {}",
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
                    assert!(m.insert(k.clone(), v).is_none(), "duplicate key {k}");
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
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
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::Arr(a);
                    }
                }
            }
            b'"' => {
                let start = self.i + 1;
                self.i = start;
                while self.s[self.i] != b'"' {
                    assert_ne!(self.s[self.i], b'\\', "escapes are not used");
                    self.i += 1;
                }
                self.i += 1;
                Json::Str(String::from_utf8(self.s[start..self.i - 1].to_vec()).unwrap())
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
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).unwrap();
                Json::Num(
                    text.parse()
                        .unwrap_or_else(|_| panic!("bad number {text:?}")),
                )
            }
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
    assert_eq!(p.i, text.len(), "trailing input");
    v
}

/// `(name, unit)` of every metric in one section of BENCHMARK.json.
fn listed(bench: &Json, section: &str) -> Vec<(String, String)> {
    let Json::Arr(items) = bench.get(section) else {
        panic!("{section} is not a list")
    };
    items
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

#[test]
fn smoke_runs_print_exactly_the_listed_metrics() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    let bench = parse(&std::fs::read_to_string(format!("{root}/BENCHMARK.json")).unwrap());
    let workloads: Vec<String> = match bench.get("workloads") {
        Json::Arr(w) => w.iter().map(|w| w.get("name").str().to_string()).collect(),
        other => panic!("workloads is {other:?}"),
    };
    assert!(!workloads.is_empty());
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let want = listed(&bench, section);
        for w in &workloads {
            let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
                .args(["--workload", w, "--seed", "7", "--seconds", "0.5"])
                .args(["--trace", trace, "--scale", "0.125"])
                .output()
                .expect("run perfbench");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(out.status.success(), "{w} trace {trace}: {stderr}");
            let stdout = String::from_utf8(out.stdout).unwrap();
            let result = parse(stdout.lines().last().expect("a result line"));
            let Json::Obj(top) = &result else {
                panic!("result is not an object")
            };
            let keys: Vec<&str> = top.keys().map(String::as_str).collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"], "{w}");
            assert_eq!(result.get("correct"), &Json::Bool(true), "{w}");
            let Json::Obj(metrics) = result.get("metrics") else {
                panic!("metrics")
            };
            let got: Vec<(String, String)> = metrics
                .iter()
                .map(|(k, v)| (k.clone(), v.get("unit").str().to_string()))
                .collect();
            let mut want_sorted = want.clone();
            want_sorted.sort();
            assert_eq!(got, want_sorted, "{w} trace {trace}");
            for (k, v) in metrics {
                assert!(
                    matches!(v.get("value"), Json::Num(x) if x.is_finite()),
                    "{w} {k}"
                );
            }
        }
    }
}

#[test]
fn a_failed_argument_check_prints_no_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "no-such-workload"])
        .output()
        .expect("run perfbench");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}

//! The run report's JSON, read back.
//!
//! [`flatten`] parses what `RunReport::to_json` writes (integers, objects,
//! arrays) into its numbers by path — `monitor.per_locality[3].lock_conflicts`
//! — in document order.

use std::collections::BTreeSet;

/// A report's numbers by path, in document order.
#[derive(Default)]
pub struct Flat {
    pub leaves: Vec<(String, u64)>,
}

impl Flat {
    /// Every leaf path with array indices written `[*]`, once each, in
    /// document order.
    pub fn key_paths(&self) -> Vec<String> {
        let mut seen = BTreeSet::new();
        let paths = self.leaves.iter().map(|(p, _)| star(p));
        paths.filter(|p| seen.insert(p.clone())).collect()
    }
}

/// `path` with every array index replaced by `*`.
fn star(path: &str) -> String {
    let mut out = String::with_capacity(path.len());
    let mut in_index = false;
    for c in path.chars() {
        match c {
            '[' => {
                in_index = true;
                out.push_str("[*");
            }
            ']' => {
                in_index = false;
                out.push(']');
            }
            _ if in_index => {}
            _ => out.push(c),
        }
    }
    out
}

/// Parse a report's JSON; panics on anything `to_json` does not write.
pub fn flatten(json: &str) -> Flat {
    let mut parser = Parser {
        s: json.as_bytes(),
        at: 0,
        flat: Flat::default(),
    };
    parser.value(String::new());
    assert_eq!(parser.at, json.len(), "trailing input after the report");
    parser.flat
}

struct Parser<'a> {
    s: &'a [u8],
    at: usize,
    flat: Flat,
}

impl Parser<'_> {
    fn eat(&mut self, c: u8) -> bool {
        let hit = self.s.get(self.at) == Some(&c);
        self.at += usize::from(hit);
        hit
    }

    fn expect(&mut self, c: u8) {
        assert!(self.eat(c), "expected {:?} at byte {}", c as char, self.at);
    }

    fn value(&mut self, path: String) {
        if self.eat(b'{') {
            let mut first = true;
            while !self.eat(b'}') {
                if !std::mem::take(&mut first) {
                    self.expect(b',');
                }
                self.expect(b'"');
                let len = self.s[self.at..]
                    .iter()
                    .position(|&c| c == b'"')
                    .expect("key");
                let key = std::str::from_utf8(&self.s[self.at..self.at + len]).unwrap();
                self.at += len + 1;
                self.expect(b':');
                let sep = if path.is_empty() { "" } else { "." };
                self.value(format!("{path}{sep}{key}"));
            }
        } else if self.eat(b'[') {
            let mut n = 0;
            while !self.eat(b']') {
                if n > 0 {
                    self.expect(b',');
                }
                self.value(format!("{path}[{n}]"));
                n += 1;
            }
        } else {
            let len = self.s[self.at..]
                .iter()
                .take_while(|c| c.is_ascii_digit())
                .count();
            assert!(len > 0, "expected a number at byte {}", self.at);
            let text = std::str::from_utf8(&self.s[self.at..self.at + len]).unwrap();
            let v: u64 = text.parse().expect("a u64");
            self.at += len;
            self.flat.leaves.push((path, v));
        }
    }
}

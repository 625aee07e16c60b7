//! The one JSON writer behind `bench --json` and `open --json`
//! (hand-rolled: the workspace deliberately has no JSON dependency).

use std::fmt::Write as _;

/// A JSON value. Objects keep their members in the order given.
pub enum Json {
    Bool(bool),
    Int(u64),
    /// Written at the document's fixed precision; non-finite is `null`.
    Num(f64),
    /// Written unescaped: every string this program writes is a plain
    /// identifier (a schema, kernel or policy name, a hex fingerprint).
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(&'static str, Json)>),
}

/// Writes the object of `members` as a document: its members one per
/// line, an array member one element per line, anything nested deeper
/// inline; every number at `precision` decimal places.
pub fn document(members: &[(&'static str, Json)], precision: usize) -> String {
    let mut s = String::from("{\n");
    for (i, (key, value)) in members.iter().enumerate() {
        let _ = write!(s, "  \"{key}\": ");
        match value {
            Json::Arr(items) => {
                s.push_str("[\n");
                for (j, item) in items.iter().enumerate() {
                    let comma = if j + 1 < items.len() { "," } else { "" };
                    let _ = writeln!(s, "    {}{comma}", item.inline(precision));
                }
                s.push_str("  ]");
            }
            _ => s.push_str(&value.inline(precision)),
        }
        s.push_str(if i + 1 < members.len() { ",\n" } else { "\n" });
    }
    s.push_str("}\n");
    s
}

impl Json {
    /// `self` on one line, with `": "` and `", "` separators.
    fn inline(&self, precision: usize) -> String {
        match self {
            Json::Bool(b) => b.to_string(),
            Json::Int(n) => n.to_string(),
            Json::Num(x) if x.is_finite() => format!("{x:.precision$}"),
            Json::Num(_) => "null".into(),
            Json::Str(text) => format!("\"{text}\""),
            Json::Arr(items) => {
                let items: Vec<String> = items.iter().map(|v| v.inline(precision)).collect();
                format!("[{}]", items.join(", "))
            }
            Json::Obj(members) => {
                let members: Vec<String> = members
                    .iter()
                    .map(|(key, v)| format!("\"{key}\": {}", v.inline(precision)))
                    .collect();
                format!("{{{}}}", members.join(", "))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::document;
    use super::Json::*;

    #[test]
    fn documents_follow_the_layout_rule() {
        let members = [
            ("schema", Str("x/v1".into())),
            ("n", Int(7)),
            (
                "rows",
                Arr(vec![
                    Obj(vec![("a", Num(0.5)), ("b", Obj(vec![("ok", Bool(true))]))]),
                    Obj(vec![("a", Num(f64::NAN)), ("b", Arr(vec![Int(1), Int(2)]))]),
                ]),
            ),
            ("empty", Arr(vec![])),
        ];
        assert_eq!(
            document(&members, 3),
            "{\n  \"schema\": \"x/v1\",\n  \"n\": 7,\n  \"rows\": [\n    \
             {\"a\": 0.500, \"b\": {\"ok\": true}},\n    \
             {\"a\": null, \"b\": [1, 2]}\n  ],\n  \"empty\": [\n  ]\n}\n"
        );
    }
}

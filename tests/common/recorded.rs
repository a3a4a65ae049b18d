//! The one reader of the checked-in `BENCH_<name>.json` files: a JSON
//! array with one flat row object per line, as `allscale-bench`'s
//! `experiments` bin writes them. A suite's `recorded_*` predicates hold
//! the sentences EXPERIMENTS.md says about a table against these rows.

/// One row: its cells as (column, raw JSON token), in file order.
pub struct Row(Vec<(String, String)>);

impl Row {
    fn cell(&self, column: &str) -> &str {
        let found = self.0.iter().find(|(k, _)| k == column);
        &found.unwrap_or_else(|| panic!("no column {column:?}")).1
    }

    /// A numeric column.
    pub fn num(&self, column: &str) -> f64 {
        let cell = self.cell(column);
        cell.parse()
            .unwrap_or_else(|_| panic!("{column} = {cell} is not a number"))
    }

    /// A column as a label: a string's contents, or a number's token.
    pub fn label(&self, column: &str) -> &str {
        self.cell(column).trim_matches('"')
    }
}

/// Every row of a `BENCH_<name>.json` (pass its `include_str!`).
pub fn rows(json: &str) -> Vec<Row> {
    let rows: Vec<Row> = json
        .lines()
        .filter_map(|line| line.trim().trim_end_matches(',').strip_prefix('{'))
        .map(|body| Row(cells(body.strip_suffix('}').expect("one object per line"))))
        .collect();
    assert!(!rows.is_empty(), "no rows");
    rows
}

/// The one row whose `column`s carry these labels.
pub fn find<'a>(rows: &'a [Row], labels: &[(&str, &str)]) -> &'a Row {
    let mut hits = rows
        .iter()
        .filter(|r| labels.iter().all(|(c, l)| r.label(c) == *l));
    let row = hits.next().unwrap_or_else(|| panic!("no row {labels:?}"));
    assert!(hits.next().is_none(), "more than one row {labels:?}");
    row
}

/// `"k":v,"k":"s",…` → [(k, v), (k, "s"), …]; a string holds no quote.
fn cells(mut body: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    while let Some(rest) = body.strip_prefix('"') {
        let (key, rest) = rest.split_once("\":").expect("a key");
        let end = match rest.strip_prefix('"') {
            Some(s) => s.find('"').expect("a closed string") + 2,
            None => rest.find(',').unwrap_or(rest.len()),
        };
        out.push((key.to_string(), rest[..end].to_string()));
        body = rest[end..].strip_prefix(',').unwrap_or("");
    }
    assert!(body.is_empty(), "unparsed: {body}");
    out
}

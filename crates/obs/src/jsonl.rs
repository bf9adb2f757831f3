//! JSONL export, schema validation, and the trace canonicalizer.
//!
//! One span per line, flat JSON object, fixed key set (the *schema*):
//!
//! ```json
//! {"id":7,"parent":3,"name":"resolve.curve","key":"0x00000000c0ffee00",
//!  "ord":null,"outcome":"cached","attempts":0,"start_ns":1200,"dur_ns":450}
//! ```
//!
//! * `id`, `attempts`, `start_ns`, `dur_ns` — unsigned integers
//! * `parent`, `ord` — unsigned integer or `null`
//! * `key` — `"0x"` + 16 lowercase hex digits, or `null`
//! * `name` — non-empty string; `outcome` — one of
//!   `ok|executed|cached|failed|degraded`
//!
//! The validator is a self-contained flat-object JSON parser (the
//! crate is zero-dependency by charter); [`write_file`] runs it on
//! every line it emits so a malformed trace can never be written.
//!
//! [`canonicalize`] renders a span list as an indented tree with ids
//! and durations stripped, batch roots and grid cells sorted by `ord`,
//! and memoized resolutions normalized (`executed`/`cached` both print
//! `resolved`, with their children pruned). That is exactly the part of a trace
//! the determinism contract pins across thread budgets: *which*
//! session resolves an artifact from the store versus computes it is
//! scheduling-dependent by design (memoization decides who computes,
//! never what), but the set of queries, the artifacts each touched,
//! and every failure are not.

use crate::span::{SpanOutcome, SpanRecord};
use std::collections::BTreeMap;
use std::fmt::Write as _;

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Serialize one span to its JSONL line (no trailing newline).
pub fn to_line(r: &SpanRecord) -> String {
    let parent = match r.parent {
        Some(p) => p.to_string(),
        None => "null".to_string(),
    };
    let key = match r.key {
        Some(k) => format!("\"0x{k:016x}\""),
        None => "null".to_string(),
    };
    let ord = match r.ord {
        Some(o) => o.to_string(),
        None => "null".to_string(),
    };
    format!(
        "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"key\":{},\"ord\":{},\"outcome\":\"{}\",\"attempts\":{},\"start_ns\":{},\"dur_ns\":{}}}",
        r.id,
        parent,
        escape(r.name),
        key,
        ord,
        r.outcome.name(),
        r.attempts,
        r.start_ns,
        r.dur_ns,
    )
}

/// Value of one field in a flat JSON object.
#[derive(Clone, Debug, PartialEq)]
enum Flat {
    Null,
    Uint(u64),
    Str(String),
}

/// Minimal parser for a single-line flat JSON object: string, unsigned
/// integer, and null values only (all the span schema needs).
fn parse_flat(line: &str) -> Result<BTreeMap<String, Flat>, String> {
    let bytes = line.as_bytes();
    let err = |i: usize, what: &str| format!("byte {i}: {what}");
    let skip_ws = |bytes: &[u8], mut i: usize| {
        while i < bytes.len() && (bytes[i] == b' ' || bytes[i] == b'\t') {
            i += 1;
        }
        i
    };
    fn parse_string(bytes: &[u8], mut i: usize) -> Result<(String, usize), String> {
        if i >= bytes.len() || bytes[i] != b'"' {
            return Err(format!("byte {i}: expected string"));
        }
        i += 1;
        let mut s = String::new();
        while i < bytes.len() {
            match bytes[i] {
                b'"' => return Ok((s, i + 1)),
                b'\\' => {
                    i += 1;
                    if i >= bytes.len() {
                        return Err(format!("byte {i}: dangling escape"));
                    }
                    match bytes[i] {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'n' => s.push('\n'),
                        b't' => s.push('\t'),
                        b'u' => {
                            if i + 4 >= bytes.len() {
                                return Err(format!("byte {i}: short \\u escape"));
                            }
                            let hex = std::str::from_utf8(&bytes[i + 1..i + 5])
                                .map_err(|_| format!("byte {i}: bad \\u escape"))?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("byte {i}: bad \\u escape"))?;
                            s.push(
                                char::from_u32(cp)
                                    .ok_or_else(|| format!("byte {i}: bad codepoint"))?,
                            );
                            i += 4;
                        }
                        c => return Err(format!("byte {i}: unsupported escape \\{}", c as char)),
                    }
                    i += 1;
                }
                c => {
                    // Multi-byte UTF-8 sequences pass through verbatim.
                    let ch_len = match c {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let end = (i + ch_len).min(bytes.len());
                    s.push_str(
                        std::str::from_utf8(&bytes[i..end])
                            .map_err(|_| format!("byte {i}: invalid utf-8"))?,
                    );
                    i = end;
                }
            }
        }
        Err(format!("byte {i}: unterminated string"))
    }
    if bytes.is_empty() || bytes[0] != b'{' {
        return Err(err(0, "expected `{`"));
    }
    let mut i = skip_ws(bytes, 1);
    let mut out = BTreeMap::new();
    if i < bytes.len() && bytes[i] == b'}' {
        return Ok(out);
    }
    loop {
        let (name, next) = parse_string(bytes, i)?;
        i = skip_ws(bytes, next);
        if i >= bytes.len() || bytes[i] != b':' {
            return Err(err(i, "expected `:`"));
        }
        i = skip_ws(bytes, i + 1);
        let value = if bytes[i..].starts_with(b"null") {
            i += 4;
            Flat::Null
        } else if i < bytes.len() && bytes[i] == b'"' {
            let (s, next) = parse_string(bytes, i)?;
            i = next;
            Flat::Str(s)
        } else {
            let start = i;
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
            if i == start {
                return Err(err(i, "expected value (string, unsigned int, or null)"));
            }
            let n: u64 = std::str::from_utf8(&bytes[start..i])
                .unwrap()
                .parse()
                .map_err(|_| err(start, "integer out of range"))?;
            Flat::Uint(n)
        };
        if out.insert(name.clone(), value).is_some() {
            return Err(format!("duplicate field `{name}`"));
        }
        i = skip_ws(bytes, i);
        match bytes.get(i) {
            Some(b',') => i = skip_ws(bytes, i + 1),
            Some(b'}') => {
                i += 1;
                break;
            }
            _ => return Err(err(i, "expected `,` or `}`")),
        }
    }
    if skip_ws(bytes, i) != bytes.len() {
        return Err(err(i, "trailing bytes after object"));
    }
    Ok(out)
}

/// Span fields that always hold a value the span set.
const REQUIRED: [&str; 4] = ["id", "name", "start_ns", "dur_ns"];

/// Span fields a line carries at their unset value (`null`, `ok`, `0`)
/// unless the span set them. With [`REQUIRED`], the whole schema —
/// DESIGN.md §12 lists both groups.
const OPTIONAL: [&str; 5] = ["parent", "key", "ord", "outcome", "attempts"];

/// Validate one JSONL line against the span schema.
pub fn validate_line(line: &str) -> Result<(), String> {
    let obj = parse_flat(line)?;
    for field in REQUIRED.iter().chain(&OPTIONAL) {
        if !obj.contains_key(*field) {
            return Err(format!("missing field `{field}`"));
        }
    }
    if obj.len() != REQUIRED.len() + OPTIONAL.len() {
        let extra: Vec<_> = obj
            .keys()
            .filter(|k| !REQUIRED.contains(&k.as_str()) && !OPTIONAL.contains(&k.as_str()))
            .cloned()
            .collect();
        return Err(format!("unknown fields: {extra:?}"));
    }
    let uint = |field: &str| match &obj[field] {
        Flat::Uint(_) => Ok(()),
        v => Err(format!(
            "field `{field}` must be an unsigned int, got {v:?}"
        )),
    };
    uint("id")?;
    uint("start_ns")?;
    uint("dur_ns")?;
    match &obj["attempts"] {
        Flat::Uint(n) if *n <= u32::MAX as u64 => {}
        v => return Err(format!("field `attempts` must fit u32, got {v:?}")),
    }
    for field in ["parent", "ord"] {
        match &obj[field] {
            Flat::Uint(_) | Flat::Null => {}
            v => return Err(format!("field `{field}` must be uint or null, got {v:?}")),
        }
    }
    match &obj["name"] {
        Flat::Str(s) if !s.is_empty() => {}
        v => {
            return Err(format!(
                "field `name` must be a non-empty string, got {v:?}"
            ))
        }
    }
    match &obj["key"] {
        Flat::Null => {}
        Flat::Str(s)
            if s.len() == 18
                && s.starts_with("0x")
                && s[2..]
                    .bytes()
                    .all(|b| b.is_ascii_hexdigit() && !b.is_ascii_uppercase()) => {}
        v => {
            return Err(format!(
                "field `key` must be `0x` + 16 lowercase hex digits or null, got {v:?}"
            ))
        }
    }
    match &obj["outcome"] {
        Flat::Str(s) if SpanOutcome::parse(s).is_some() => {}
        v => {
            return Err(format!(
                "field `outcome` must be a known outcome, got {v:?}"
            ))
        }
    }
    Ok(())
}

/// Serialize, schema-validate, and write `spans` to `path` as JSONL.
/// Creates parent directories. Errors if any line fails validation —
/// a malformed trace is a bug, not a log entry.
pub fn write_file(path: &std::path::Path, spans: &[SpanRecord]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let mut out = String::new();
    for span in spans {
        let line = to_line(span);
        if let Err(e) = validate_line(&line) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("span failed schema validation ({e}): {line}"),
            ));
        }
        out.push_str(&line);
        out.push('\n');
    }
    std::fs::write(path, out)
}

/// Render a span list as a canonical indented tree, stripping
/// everything the determinism contract does not pin:
///
/// * ids and all timing fields are dropped;
/// * roots sort by `(ord, name, key)`, and siblings that carry an `ord`
///   sort by it — batch order, not thread order;
/// * memoized resolutions (`resolve.*` spans) print `resolved` for
///   both `executed` and `cached`, and their children are pruned
///   (which session computes an artifact is scheduling-dependent);
/// * `attempts` prints only on failed spans.
///
/// Two runs of the same seed + query batch must produce identical
/// canonical trees at any thread budget.
pub fn canonicalize(spans: &[SpanRecord]) -> String {
    let mut sorted: Vec<&SpanRecord> = spans.iter().collect();
    sorted.sort_by_key(|r| r.id);
    let mut children: BTreeMap<u64, Vec<&SpanRecord>> = BTreeMap::new();
    let mut roots: Vec<&SpanRecord> = Vec::new();
    for r in &sorted {
        match r.parent {
            Some(p) => children.entry(p).or_default().push(r),
            None => roots.push(r),
        }
    }
    roots.sort_by_key(|r| (r.ord.unwrap_or(u64::MAX), r.name, r.key));
    // Siblings that carry an `ord` (a grid's cells) sort by it too: pool
    // threads open them in scheduling order, so their ids are not batch
    // order. The sort is stable, so the rest keep their program order.
    for siblings in children.values_mut() {
        siblings.sort_by_key(|r| r.ord.unwrap_or(u64::MAX));
    }
    let mut out = String::new();
    fn emit(
        r: &SpanRecord,
        depth: usize,
        children: &BTreeMap<u64, Vec<&SpanRecord>>,
        out: &mut String,
    ) {
        let resolved = r.name.starts_with("resolve.")
            && matches!(r.outcome, SpanOutcome::Executed | SpanOutcome::Cached);
        for _ in 0..depth {
            out.push_str("  ");
        }
        out.push_str(r.name);
        if let Some(k) = r.key {
            let _ = write!(out, " key=0x{k:016x}");
        }
        if let Some(o) = r.ord {
            let _ = write!(out, " ord={o}");
        }
        if resolved {
            out.push_str(" outcome=resolved");
        } else if r.outcome != SpanOutcome::Ok {
            let _ = write!(out, " outcome={}", r.outcome.name());
        }
        if r.outcome == SpanOutcome::Failed {
            let _ = write!(out, " attempts={}", r.attempts);
        }
        out.push('\n');
        if !resolved {
            for c in children.get(&r.id).into_iter().flatten() {
                emit(c, depth + 1, children, out);
            }
        }
    }
    for r in roots {
        emit(r, 0, &children, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn design_doc_lists_the_wire_fields() {
        let design = include_str!("../../../DESIGN.md");
        let s12 = &design[design.find("## §12").expect("DESIGN.md has a §12")..];
        let text = s12.split_whitespace().collect::<Vec<_>>().join(" ");
        let listed = |group: &str| {
            let open = format!("{group} `");
            let at = text
                .find(&open)
                .unwrap_or_else(|| panic!("§12 lists no {group} fields"));
            let list = &text[at + open.len()..];
            list[..list.find('`').unwrap()]
                .split('/')
                .collect::<Vec<_>>()
        };
        assert_eq!(REQUIRED.to_vec(), listed("required"));
        assert_eq!(OPTIONAL.to_vec(), listed("optional"));
    }

    fn rec(id: u64, parent: Option<u64>, name: &'static str) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name,
            key: None,
            ord: None,
            outcome: SpanOutcome::Ok,
            attempts: 0,
            start_ns: id * 10,
            dur_ns: 5,
        }
    }

    #[test]
    fn lines_round_trip_through_the_validator() {
        let mut r = rec(7, Some(3), "resolve.curve");
        r.key = Some(0xc0ffee00);
        r.ord = Some(12);
        r.outcome = SpanOutcome::Cached;
        let line = to_line(&r);
        assert_eq!(
            "{\"id\":7,\"parent\":3,\"name\":\"resolve.curve\",\
             \"key\":\"0x00000000c0ffee00\",\"ord\":12,\"outcome\":\"cached\",\
             \"attempts\":0,\"start_ns\":70,\"dur_ns\":5}",
            line
        );
        validate_line(&line).unwrap();
        validate_line(&to_line(&rec(1, None, "query"))).unwrap();
    }

    #[test]
    fn validator_rejects_schema_violations() {
        assert!(validate_line("not json").is_err());
        assert!(validate_line("{}").unwrap_err().contains("missing field"));
        // Wrong type.
        let bad = to_line(&rec(1, None, "q")).replace("\"id\":1", "\"id\":\"1\"");
        assert!(validate_line(&bad).unwrap_err().contains("unsigned int"));
        // Unknown outcome.
        let bad = to_line(&rec(1, None, "q")).replace("\"ok\"", "\"maybe\"");
        assert!(validate_line(&bad).unwrap_err().contains("outcome"));
        // Malformed key.
        let bad = to_line(&rec(1, None, "q")).replace("\"key\":null", "\"key\":\"0xZZ\"");
        assert!(validate_line(&bad).unwrap_err().contains("hex"));
        // Extra field.
        let bad = to_line(&rec(1, None, "q")).replace("\"dur_ns\":5}", "\"dur_ns\":5,\"x\":1}");
        assert!(validate_line(&bad).unwrap_err().contains("unknown fields"));
        // Duplicate field.
        let bad = to_line(&rec(1, None, "q")).replace("\"dur_ns\":5}", "\"dur_ns\":5,\"id\":1}");
        assert!(validate_line(&bad).unwrap_err().contains("duplicate"));
        // Negative / non-digit number.
        let bad = to_line(&rec(1, None, "q")).replace("\"id\":1", "\"id\":-1");
        assert!(validate_line(&bad).is_err());
    }

    #[test]
    fn canonicalizer_strips_scheduling_and_timing_noise() {
        // Run A: query 1 executed the curve; run B (other thread
        // budget): query 1 got it from the store, executed spans hang
        // under some other query. Canonical forms must match.
        let mut a_query = rec(1, None, "query");
        a_query.ord = Some(1);
        let mut a_res = rec(2, Some(1), "resolve.curve");
        a_res.key = Some(0xabc);
        a_res.outcome = SpanOutcome::Executed;
        a_res.attempts = 1;
        let a_exec = rec(3, Some(2), "stage.curve");

        let mut b_query = rec(10, None, "query");
        b_query.ord = Some(1);
        let mut b_res = rec(11, Some(10), "resolve.curve");
        b_res.key = Some(0xabc);
        b_res.outcome = SpanOutcome::Cached;
        b_res.start_ns = 999;
        b_res.dur_ns = 1;

        let a = canonicalize(&[a_query, a_res, a_exec]);
        let b = canonicalize(&[b_res, b_query]); // drain order irrelevant
        assert_eq!(a, b);
        assert_eq!(
            "query ord=1\n  resolve.curve key=0x0000000000000abc outcome=resolved\n",
            a
        );
    }

    #[test]
    fn canonicalizer_keeps_failures_and_batch_order() {
        let mut q1 = rec(5, None, "query");
        q1.ord = Some(1);
        let mut q0 = rec(6, None, "query");
        q0.ord = Some(0);
        let mut failed = rec(7, Some(6), "resolve.placement");
        failed.outcome = SpanOutcome::Failed;
        failed.attempts = 3;
        let text = canonicalize(&[q1, q0, failed]);
        assert_eq!(
            "query ord=0\n  resolve.placement outcome=failed attempts=3\nquery ord=1\n",
            text
        );
    }

    #[test]
    fn canonicalizer_orders_cells_by_ord() {
        // A pool thread opened cell 1's span before cell 0's; the cells'
        // own children keep their program order.
        let grid = rec(1, None, "figure");
        let mut c1 = rec(2, Some(1), "cell");
        c1.ord = Some(1);
        let mut c0 = rec(3, Some(1), "cell");
        c0.ord = Some(0);
        let curve = rec(4, Some(3), "stage.curve");
        let placement = rec(5, Some(3), "stage.placement");
        assert_eq!(
            "figure\n  cell ord=0\n    stage.curve\n    stage.placement\n  cell ord=1\n",
            canonicalize(&[grid, c1, c0, curve, placement])
        );
    }

    #[test]
    fn write_file_refuses_malformed_spans() {
        let dir = std::env::temp_dir().join("obs-jsonl-test");
        let path = dir.join("trace.jsonl");
        let ok = rec(1, None, "query");
        write_file(&path, std::slice::from_ref(&ok)).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(1, body.lines().count());
        validate_line(body.lines().next().unwrap()).unwrap();
        let bad = rec(2, None, ""); // empty name violates the schema
        let err = write_file(&path, &[bad]).unwrap_err();
        assert!(err.to_string().contains("schema"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

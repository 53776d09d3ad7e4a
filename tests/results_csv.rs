//! Every committed `results/*.csv` is a table: read as RFC 4180 (a
//! field may be quoted, with inner quotes doubled, and then holds
//! commas), each row has as many fields as the header. A field cut at a
//! comma the writer did not quote shows up as a row one field too wide,
//! or, where the rest was dropped, as a bracket left open.

use std::path::Path;

/// The fields of one CSV line, RFC 4180, or `None` if a quote is not
/// closed or is followed by something other than a separator.
fn fields(line: &str) -> Option<Vec<String>> {
    let (mut out, mut chars) = (Vec::new(), line.chars().peekable());
    loop {
        let mut field = String::new();
        if chars.peek() == Some(&'"') {
            chars.next();
            loop {
                match chars.next()? {
                    '"' if chars.peek() == Some(&'"') => {
                        chars.next();
                        field.push('"');
                    }
                    '"' => break,
                    c => field.push(c),
                }
            }
            if !matches!(chars.peek(), None | Some(',')) {
                return None;
            }
        } else {
            while let Some(&c) = chars.peek() {
                if c == ',' {
                    break;
                }
                field.push(c);
                chars.next();
            }
        }
        out.push(field);
        if chars.next().is_none() {
            return Some(out);
        }
    }
}

#[test]
fn the_field_reader_follows_rfc_4180() {
    assert_eq!(fields("a,,b").unwrap(), ["a", "", "b"]);
    assert_eq!(fields(r#""x, y",2"#).unwrap(), ["x, y", "2"]);
    assert_eq!(fields(r#""say ""hi""",3"#).unwrap(), [r#"say "hi""#, "3"]);
    assert_eq!(fields(r#""open,1"#), None);
    assert_eq!(fields(r#""a"b,1"#), None);
}

#[test]
fn every_committed_results_csv_row_has_the_header_width() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    let mut tables = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|e| e != "csv") {
            continue;
        }
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines = text.lines();
        let header = fields(lines.next().expect("a header")).unwrap();
        for (i, line) in lines.enumerate() {
            let row = fields(line).unwrap_or_else(|| panic!("{name} line {}: {line}", i + 2));
            assert_eq!(row.len(), header.len(), "{name} line {}: {line}", i + 2);
            for field in &row {
                assert_eq!(
                    field.matches('[').count(),
                    field.matches(']').count(),
                    "{name} line {}: a field cut inside its brackets: {field}",
                    i + 2
                );
            }
        }
        tables += 1;
    }
    assert!(tables > 20, "{tables} tables under {}", dir.display());
}

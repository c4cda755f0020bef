//! The one JSON string and number writer every exporter shares.
//!
//! The workspace builds without registry crates, so serde_json is not
//! available; every JSON document the stack writes (job metrics, trace
//! events, result tables, perf records) renders its strings and floats
//! through these two functions, so they agree byte for byte.

/// Escape a string for inclusion inside JSON double quotes.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Render an f64 as a JSON number: `Display` (shortest round-trip digits,
/// never an exponent) plus a trailing `.0` on integral values, so the output
/// is byte-stable for identical inputs. Non-finite values become `null`,
/// matching serde_json's behaviour for f64.
pub fn num(v: f64) -> String {
    if !v.is_finite() {
        return "null".to_string();
    }
    let s = format!("{v}");
    if s.contains('.') {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn numbers() {
        assert_eq!(num(1.0), "1.0");
        assert_eq!(num(1.5), "1.5");
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(f64::INFINITY), "null");
        assert_eq!(num(2.0), "2.0");
        assert_eq!(num(-0.5), "-0.5");
        assert_eq!(num(1e21), "1000000000000000000000.0");
        assert_eq!(num(f64::NEG_INFINITY), "null");
    }
}

//! Source texts the workloads feed the program: schema files, transducer
//! files and DTL programs in the `textpres::format` formats, derived from
//! the seed. The seed picks names and the random instances; the sizes that
//! set an operation's cost are fixed, so costs do not drift with the seed.

use textpres::trees::rng::SplitMix64;

/// Labels `{prefix}0 .. {prefix}{n-1}`.
pub fn labels(prefix: &str, n: usize) -> Vec<String> {
    (0..n).map(|i| format!("{prefix}{i}")).collect()
}

/// A label prefix drawn from the seed, so each seed names its inputs apart.
pub fn prefix(rng: &mut SplitMix64, stem: &str) -> String {
    const LETTERS: &[u8] = b"abcdefghijkmnpqrstuvwxyz";
    let tail: String = (0..3)
        .map(|_| LETTERS[rng.below(LETTERS.len())] as char)
        .collect();
    format!("{stem}{tail}")
}

/// The universal schema over `labels`: every label, any children, any text.
pub fn universal_schema(labels: &[String]) -> String {
    let any = labels.join(" | ");
    let mut s = String::new();
    for l in labels {
        s.push_str(&format!("start {l}\n"));
    }
    for l in labels {
        s.push_str(&format!("elem {l} = ({any} | text)*\n"));
    }
    s
}

/// A `DTL_XPath` program with one state `q` and one rule per
/// `(guard, output, call pattern)`; `None` output is a bare call.
pub fn dtl_program(rules: &[(&str, Option<&str>, &str)], keep_text: bool) -> String {
    let mut s = String::from("dtl\ninitial q\n");
    for (guard, out, call) in rules {
        match out {
            Some(label) => s.push_str(&format!("rule q : {guard} -> {label}(q / {call})\n")),
            None => s.push_str(&format!("rule q : {guard} -> (q / {call})\n")),
        }
    }
    if keep_text {
        s.push_str("text q\n");
    }
    s
}

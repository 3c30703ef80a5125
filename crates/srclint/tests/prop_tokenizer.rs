//! Property: the srclint tokenizer never lets a hazard token inside a
//! string literal, raw string, byte string, or comment reach the passes.
//! Arbitrary padding around the token, in every literal/comment context,
//! must produce a clean report — and the same token in plain code must
//! keep firing (the blanking must not over-eat).

use massf_srclint::{lint_sources, SourceFile};
use proptest::prelude::*;

/// Hazard tokens covering every token-scanning pass. None contain quote
/// or slash characters, so they embed cleanly in any context below. The
/// SA001 entry is a full declare-and-iterate snippet: tracked-identifier
/// analysis must also ignore declarations that only exist inside text.
const TOKENS: [&str; 10] = [
    "Instant::now()",
    "SystemTime::now()",
    "thread_rng()",
    "from_entropy()",
    "from_os_rng()",
    "env::var",
    "println!",
    "thread::current().id()",
    "available_parallelism()",
    "let m: HashMap<u32, u32> = HashMap::new(); for v in m.values() {}",
];

/// Embedding contexts: each wraps the payload so it is literal/comment
/// text, inside an otherwise-clean source file.
fn embed(context: usize, payload: &str) -> String {
    match context {
        0 => format!("const X: &str = \"{payload}\";\nfn f() {{}}\n"),
        1 => format!("const X: &str = r#\"{payload}\"#;\nfn f() {{}}\n"),
        2 => format!("const X: &[u8] = b\"{payload}\";\nfn f() {{}}\n"),
        3 => format!("// {payload}\nfn f() {{}}\n"),
        4 => format!("/* {payload} */\nfn f() {{}}\n"),
        _ => format!("fn f() {{}} // {payload}\n"),
    }
}

/// Padding from a quote-free, slash-free alphabet (letters and spaces),
/// so it can never terminate the context early or open a new one.
fn padding() -> impl Strategy<Value = String> {
    prop::collection::vec(0..27usize, 0..24).prop_map(|v| {
        v.into_iter()
            .map(|i| {
                if i == 26 {
                    ' '
                } else {
                    (b'a' + i as u8) as char
                }
            })
            .collect()
    })
}

fn lint_text(text: String) -> usize {
    // A deterministic library-crate path: no scope rule waives anything.
    lint_sources(&[SourceFile {
        path: "crates/engine/src/generated.rs".to_string(),
        text,
    }])
    .iter()
    .count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn tokens_inside_literals_and_comments_never_fire(
        tok_i in 0..TOKENS.len(),
        ctx in 0..6usize,
        pre in padding(),
        post in padding(),
    ) {
        let payload = format!("{pre}{}{post}", TOKENS[tok_i]);
        let src = embed(ctx, &payload);
        let n = lint_text(src.clone());
        prop_assert_eq!(n, 0, "false positive in context {} for source:\n{}", ctx, src);
    }

    #[test]
    fn the_same_token_in_code_still_fires(tok_i in 0..TOKENS.len()) {
        // Sanity inversion: blanking must not suppress real code. Each
        // token placed as code (not literal text) produces exactly the
        // findings the passes promise.
        let src = format!("fn f() {{ {} }}\n", TOKENS[tok_i]);
        let n = lint_text(src);
        prop_assert!(n >= 1, "token {:?} should fire as code", TOKENS[tok_i]);
    }
}

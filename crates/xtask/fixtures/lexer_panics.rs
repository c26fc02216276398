// Lint fixture (not compiled): `no-panics` cases only a lexer reads
// right: a quote in a byte literal, a call in a block comment.
// tests/lints_fire.rs asserts violations by line number — keep it.

fn quote_byte_then_unwrap(x: Option<u8>) -> bool {
    x == Some(b'"') && x.unwrap() > 0 // expected violation (line 6)
}

fn unwrap_in_block_comment(x: u8) -> u8 {
    /* x.unwrap() */ x // a comment, not a call: fine
}

// Lint fixture (not compiled): a brace inside a char or byte literal
// moves no scope. tests/analyze_fire.rs asserts violations by line
// number — keep the layout stable.

fn close_brace_char_keeps_guard(s: &S) {
    let b = s.b.lock(); // LOCK-ORDER: brace.b 20
    let close = '}';
    let a = s.a.lock(); // LOCK-ORDER: brace.a 10 -- expected inversion (line 8)
    use_all(&a, &b, close);
}

fn close_brace_byte_keeps_fn_body(env: &E, a: &P, b: &P) {
    let close = b'}';
    env.rename(a, b); // expected violation (line 14)
}

fn open_brace_char_then_sync(env: &E, a: &P, b: &P) {
    let open = b'{';
    env.sync_dir(a);
    env.rename(a, b); // fine: the sync precedes the install
}

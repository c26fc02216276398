// Lint fixture (not compiled): `lock-order` for a temporary guard that
// outlives its line, and for several acquisitions under one annotation.
// tests/analyze_fire.rs asserts violations by line number — keep the
// layout stable.

fn temporary_lives_to_the_end_of_its_statement(s: &S) -> usize {
    let n = s.b.lock().len() // LOCK-ORDER: stmt.b 20
        + s.a.lock().len(); // LOCK-ORDER: stmt.a 10 -- expected inversion (line 8)
    n
}

fn temporary_dies_with_its_statement(s: &S) -> usize {
    let n = s.b.lock().len(); // LOCK-ORDER: stmt.b 20
    let m = s.a.lock().len(); // LOCK-ORDER: stmt.a 10 -- fine: the statement ended
    n + m
}

fn two_locks_in_order_on_one_line(s: &S) -> usize {
    s.a.lock().len() + s.b.lock().len() // LOCK-ORDER: stmt.a 10, stmt.b 20 -- fine
}

fn two_locks_inverted_on_one_line(s: &S) -> usize {
    s.b.lock().len() + s.a.lock().len() // LOCK-ORDER: stmt.b 20, stmt.a 10 -- expected inversion (line 23)
}

fn more_locks_than_names(s: &S) -> usize {
    s.a.lock().len() + s.b.lock().len() // LOCK-ORDER: stmt.a 10 -- expected violation (line 27)
}

//! `CountingAlloc::counting` counts the calling thread alone: another
//! thread allocating inside the window adds nothing, and a nested window
//! adds its count to the one around it.

use std::hint::black_box;
use std::sync::mpsc;

#[global_allocator]
static ALLOC: obs::CountingAlloc = obs::CountingAlloc::new();

#[test]
fn a_window_counts_only_its_own_thread() {
    let (go, wait) = mpsc::channel::<()>();
    let (done, finished) = mpsc::channel::<()>();
    let other = std::thread::spawn(move || {
        wait.recv().unwrap();
        for n in 0..100 {
            black_box(vec![0u8; 64 + n]);
        }
        done.send(()).unwrap();
    });
    let n = ALLOC.counting(|| {
        go.send(()).unwrap();
        finished.recv().unwrap();
        black_box(Box::new(7u64));
    });
    other.join().unwrap();
    // The box, plus whatever the two channel handoffs allocate on this
    // thread: never the other thread's hundred vectors.
    assert!((1..10).contains(&n), "{n}");

    let mut inner = 0;
    let outer = ALLOC.counting(|| {
        black_box(Box::new(1u64));
        inner = ALLOC.counting(|| {
            black_box(Box::new(2u64));
            black_box(Box::new(3u64));
        });
    });
    assert_eq!((outer, inner), (3, 2));
}

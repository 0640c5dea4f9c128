//! Order-preserving strided parallel map.
//!
//! Worker `w` of `T` owns items `{w, w+T, w+2T, …}` and maps them in
//! order; the results are interleaved back into input order. Because
//! ownership is a pure function of the index, the output is the same
//! vector at every thread count whenever `f` is a pure function of its
//! item — the property the fleet's compile cache, the corpus scanner
//! and the loopback uploader all rely on.

/// Maps `f` over `items` on up to `threads` scoped workers, returning
/// the results in input order. One thread (or one item) runs inline on
/// the caller's thread.
pub fn strided_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = threads.clamp(1, items.len().max(1));
    if threads == 1 {
        return items.iter().map(f).collect();
    }
    let f = &f;
    let shards: Vec<Vec<R>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|worker| {
                scope.spawn(move || items.iter().skip(worker).step_by(threads).map(f).collect())
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("strided worker panicked"))
            .collect()
    });
    let mut shards: Vec<_> = shards.into_iter().map(Vec::into_iter).collect();
    (0..items.len())
        .map(|i| shards[i % threads].next().expect("worker mapped its item"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_is_in_input_order_at_every_thread_count() {
        let items: Vec<u64> = (0..37).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for threads in [1, 2, 3, 8, 16, 64] {
            assert_eq!(strided_map(&items, threads, |x| x * x + 1), serial);
        }
    }

    #[test]
    fn empty_input_and_zero_threads_are_fine() {
        let empty: Vec<u8> = Vec::new();
        assert!(strided_map(&empty, 8, |x| *x).is_empty());
        assert_eq!(strided_map(&[5u8], 0, |x| *x), vec![5]);
    }
}

// Fixture mini-workspace test file: `live` is asserted 0 once but also read,
// `zero_only` is only ever asserted to be 0.
fn guard(stats: ShardStats) {
    assert_eq!(stats.live, 0);
    assert!(stats.live <= 1);
    assert_eq!(
        stats.zero_only, 0u64,
        "never counts"
    );
    assert_eq!(stats.zero_only, 0);
}

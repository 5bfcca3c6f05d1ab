// Fixture mini-workspace: the tests/ file below reads `live` and asserts
// `zero_only` is 0 and nothing else — `counter-coverage` must flag exactly
// `zero_only`.
pub struct ShardStats {
    pub live: u64,
    pub zero_only: u64,
}

// Fixture module: its one `wall-clock` finding is excused by the fixture
// `lint.allow`, so it must land in `suppressed`, not in the diagnostics.
// Not a crate root, so the missing-header lints do not apply here.

/// The one allowlisted finding.
pub fn excused() -> u128 {
    std::time::Instant::now().elapsed().as_nanos()
}

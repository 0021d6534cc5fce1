/**
 * @file
 * TmConfig: the commit-path optimization flags (docs/COMMIT_PATH.md).
 *
 * Each flag gates one of the commit-path speed fronts independently so
 * every combination can be A/B benched and driven through the
 * conformance and check matrices (ROADMAP item 2). The flags are
 * engine-wide policy, not per-algorithm: a session that has no use for
 * a front (e.g. a TL2-family session and the NOrec timestamp
 * extension) simply ignores it.
 */

#ifndef RHTM_CORE_ENGINE_TM_CONFIG_H
#define RHTM_CORE_ENGINE_TM_CONFIG_H

namespace rhtm
{

/**
 * Commit-path front switches, wired from RuntimeConfig into every
 * session (TxSession::configureCommitPath). Defaults are the shipped
 * configuration: a front may default on only once it passes the
 * conformance sweep, the src/check/ program matrix, and the chaos/TSan
 * legs (docs/COMMIT_PATH.md has the safety argument per front).
 */
struct TmConfig
{
    /**
     * Front 1: per-transaction read/write-set Bloom filters. Readers
     * summarize their value-read log; committing writers publish their
     * write-set summary into the domain's CommitFilterRing while still
     * holding the clock. A reader that sees the clock move can then
     * prove every intervening commit disjoint from its read set and
     * adopt the new snapshot without a full value revalidation. Also
     * gates the redo-buffer membership pre-filter on lazy read paths.
     */
    bool readFilter = true;

    /**
     * Front 2: open-addressing hash index over the RedoBuffer, making
     * read-own-writes O(1). Off = the classic NOrec backward linear
     * scan of the append log (the honest baseline the A/B measures).
     */
    bool redoIndex = true;

    /**
     * Front 3: timestamp extension for the eager NOrec family. On a
     * clock bump in the read phase, revalidate the (filter-summarized)
     * value read log once and re-stamp txVersion_ instead of
     * restarting. The lazy family has always extended; this wires the
     * same rule into the eager sessions, guarded by
     * RetryPolicy::revertTsExtensionFix for the check matrix.
     */
    bool tsExtension = true;

    /**
     * Test hook: saturate every Bloom filter (all bits set), the
     * universal hash collision. Forces the filter-intersection path on
     * every check (skips never taken) so the check matrix can pin the
     * collision schedule deterministically (the filter-collision
     * program).
     */
    bool filterSaturateForTest = false;
};

} // namespace rhtm

#endif // RHTM_CORE_ENGINE_TM_CONFIG_H

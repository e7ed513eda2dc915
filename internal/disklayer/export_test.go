package disklayer

import "time"

// SetClock overrides the time source.
func (fs *DiskFS) SetClock(clock func() time.Time) { fs.clock = clock }

// JournalStats reports this mount's commit activity: transactions
// committed, batches (= commit barriers) written, and how many of the
// transactions shared their barrier with at least one other. Tests use
// this per-mount view; the global counterparts are the
// disk.journal.txns/batches/batched counters.
func (fs *DiskFS) JournalStats() (txns, batches, batched int64) {
	fs.jnl.qmu.Lock()
	defer fs.jnl.qmu.Unlock()
	return fs.jnl.statTxns, fs.jnl.statBatches, fs.jnl.statBatched
}

package disklayer

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"slices"
	"sort"
	"sync"

	"springfs/internal/blockdev"
	"springfs/internal/stats"
)

// The disk layer keeps its metadata crash-consistent with a physical redo
// journal, the standard move for a layered store (Lustre journals metadata
// transactions at its lowest layer so every layer stacked above inherits
// durability, and so that a commit is one sequential log write while the
// in-place update is deferred and batched). Every metadata mutation — block
// alloc/free, inode create/delete/update, directory add/remove, superblock
// — is grouped into a transaction. Transactions are group-committed:
// concurrent transactions stage independently, and the first one to reach
// the commit path becomes the leader, drains every transaction staged
// behind it, and commits the whole batch as ONE sequential device write
// (records + commit block) and one barrier.
//
// Journal lifecycle (one transaction's journey):
//
//	    metaWrite / freeBlock / txnRegister
//	                 |
//	                 v
//	[open] --commitTxn--> [staged]        images visible to metaRead
//	                 \       |            via the overlay
//	                  \      v
//	                   [batched]          a leader merged it with its
//	                         |            queue neighbours (dedup by
//	                         v            block, last image wins)
//	   one WriteRun (records + commit block) -> Flush
//	                         |
//	                 [committed, live]    durable in the ring; the images
//	                         |            stay in the overlay, no home
//	                         |            has been touched
//	                         v
//	   checkpoint: live batches folded newest-wins, sorted, adjacent
//	   homes written as runs      (ring half full | ring space needed |
//	                         |     SyncFS seal | allocator out of blocks)
//	                         v
//	                      [homed]         overlay entries dropped
//	                         |
//	                         v
//	   next barrier advances the durability watermark
//	                         |
//	                         v
//	                  [checkpointed]      ring space reusable; the blocks
//	                                      the batch freed leave quarantine
//
// File DATA never enters the journal: an allocating page-out writes the
// data first, into blocks that are free in every committed state, and then
// commits the bitmap, pointer blocks and inode that reference them (the
// commit barrier covers the data too, so a returned fsync is durable).
//
// The ring occupies blocks journalBase .. journalBase+R-1 (R =
// superblock.journalBlocks). A batch is laid out as n record blocks
// followed by one commit block, written at the ring head as one run (two
// where it wraps); the head then advances n+1 (mod R). Replay reads the
// newest valid commit block, whose tailSeq field names the oldest batch
// that might not be checkpointed, and re-applies every batch in [tailSeq,
// newest] in sequence order (later images win). Anything with a bad CRC is
// a torn tail from a crash before its barrier and is discarded — that is
// the contract: it never committed.
//
// One reuse rule keeps both replay and the lazy checkpoint from ever
// writing a stale image over a reused block: a block freed by batch s is
// quarantined — free in the bitmap, but not allocatable — until the
// watermark durableSeq reaches s. From then on every commit block carries
// tailSeq > s, so no image from the block's earlier life is inside any
// replay window that also holds a reference to its new life, and every
// live image of it has gone home. Leaving quarantine, the block is zeroed
// (in sorted runs, after the commit that released it has been
// acknowledged) and handed back to the allocator.
var (
	opJournal       = stats.NewOp("disk.journal", stats.BoundaryDirect)
	journalTxns     = stats.Default.Counter("disk.journal.txns")
	journalBatches  = stats.Default.Counter("disk.journal.batches")
	journalBatched  = stats.Default.Counter("disk.journal.batched")
	journalReplayed = stats.Default.Counter("disk.journal.replayed")
)

// journalBase is the fixed block address of the first ring block in format
// version 3. It is a format constant (not read from the superblock) so
// that replay can locate candidate commit blocks even when the in-place
// superblock copy was torn by a crash mid-checkpoint.
const journalBase = 1

// journalMagic identifies a commit block.
const journalMagic = 0x5350524a_4e4c3033 // "SPRJNL03"

// Commit block layout (big-endian):
//
//	[0:8]   magic
//	[8:16]  batch sequence number (first batch after Mkfs is 1)
//	[16:24] record count n
//	[24:32] tailSeq: the oldest batch sequence number whose homes may not
//	        be durable; replay starts here
//	[32:40] startIdx: ring index (0-based, relative to journalBase) of the
//	        batch's first record block
//	[40:48] ring size R in blocks (the commit block is self-describing, so
//	        replay can validate geometry without the superblock)
//	[48:56] transactions merged into this batch (informational)
//	[56:64] CRC-64/ECMA over bytes [8:56], the home addresses, and the n
//	        record blocks
//	[64:]   n home block addresses, 8 bytes each
const commitHdrSize = 64

// maxJournalRecords bounds the records a commit block can name.
const maxJournalRecords = (BlockSize - commitHdrSize) / 8

// maxRingBlocks bounds the journal region: one batch must fit in the ring,
// so a larger region could never be used.
const maxRingBlocks = maxJournalRecords + 1

var crcTable = crc64.MakeTable(crc64.ECMA)

// ErrTxnTooBig means one metadata mutation touched more distinct blocks
// than the journal region can hold; the operation is refused rather than
// committed non-atomically.
var ErrTxnTooBig = errors.New("disklayer: transaction exceeds journal capacity")

// errNoTxn flags a metadata write outside a transaction — a disk layer
// bug, not a runtime condition.
var errNoTxn = errors.New("disklayer: metadata write outside a transaction")

// readRun and writeRun move len(buf)/BlockSize consecutive blocks in one
// device call where the device supports runs, block by block otherwise.
func readRun(dev blockdev.Device, bn int64, buf []byte) error {
	if rr, ok := dev.(blockdev.RunReader); ok && len(buf) > BlockSize {
		return rr.ReadRun(bn, buf)
	}
	for off := 0; off < len(buf); off += BlockSize {
		if err := dev.ReadBlock(bn+int64(off/BlockSize), buf[off:off+BlockSize]); err != nil {
			return err
		}
	}
	return nil
}

func writeRun(dev blockdev.Device, bn int64, buf []byte) error {
	if rr, ok := dev.(blockdev.RunReader); ok && len(buf) > BlockSize {
		return rr.WriteRun(bn, buf)
	}
	for off := 0; off < len(buf); off += BlockSize {
		if err := dev.WriteBlock(bn+int64(off/BlockSize), buf[off:off+BlockSize]); err != nil {
			return err
		}
	}
	return nil
}

// writeSorted writes one image per block of bns (ascending), adjacent
// blocks assembled into one run.
func writeSorted(dev blockdev.Device, bns []int64, image func(bn int64) []byte) error {
	for i := 0; i < len(bns); {
		j := i + 1
		for j < len(bns) && bns[j] == bns[j-1]+1 {
			j++
		}
		run := image(bns[i])
		if j-i > 1 {
			run = make([]byte, 0, (j-i)*BlockSize)
			for _, bn := range bns[i:j] {
				run = append(run, image(bn)...)
			}
		}
		if err := writeRun(dev, bns[i], run); err != nil {
			return err
		}
		i = j
	}
	return nil
}

// zeroBlock is a block of zeros; read-only.
var zeroBlock [BlockSize]byte

// zeroBlocks zeroes blocks on the device, adjacent ones as one run. It
// sorts blocks in place.
func zeroBlocks(dev blockdev.Device, blocks []int64) error {
	sort.Slice(blocks, func(i, j int) bool { return blocks[i] < blocks[j] })
	return writeSorted(dev, blocks, func(int64) []byte { return zeroBlock[:] })
}

// txn accumulates the block images of one metadata mutation. Writes are
// deduplicated by block address (the last image wins) and reads during the
// transaction observe them, so read-modify-write cycles inside one
// operation stay coherent.
type txn struct {
	writes map[int64][]byte
	order  []int64
	// freed lists the blocks this transaction freed. They stay quarantined
	// (see the reuse rule above) until the batch carrying the transaction
	// is behind the durability watermark.
	freed []int64
	// inodes are the cached inodes structurally changed by this
	// transaction (new/cleared block pointers, link counts). They are
	// written into the transaction at commit so the on-disk inode can
	// never disagree with a committed bitmap or pointer-block change.
	inodes map[uint64]*cachedInode
	// seal marks the transaction as a SyncFS seal: the leader checkpoints
	// and barriers everything older first, so the batch carrying the seal
	// becomes the entire replay window — a window of pure metadata with no
	// image of any block the sync is about to zero out of quarantine.
	seal bool
	// committed and commitErr publish the batch outcome to the staging
	// goroutine. Written by the leader (which holds cmu) and read in
	// commitGroup's loop (which also holds cmu).
	committed bool
	commitErr error
}

func newTxn() *txn {
	return &txn{
		writes: make(map[int64][]byte),
		inodes: make(map[uint64]*cachedInode),
	}
}

// put buffers a block image, copying buf (always a full block: that is
// the metaWrite contract). The image comes from the scratch pool and goes
// back via the journal once the commit protocol is done with it.
func (t *txn) put(bn int64, buf []byte) {
	if _, ok := t.writes[bn]; !ok {
		t.order = append(t.order, bn)
		t.writes[bn] = getBlockBuf()
	}
	copy(t.writes[bn], buf)
}

// release returns any still-owned block images to the scratch pool (the
// journal strips images it took ownership of out of t.writes).
func (t *txn) release() {
	for bn, img := range t.writes {
		putBlockBuf(img)
		delete(t.writes, bn)
	}
}

// sameBuf reports whether two block images are the same backing slice
// (identity, not content — images are pooled, so identity is ownership).
func sameBuf(a, b []byte) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

// liveBatch is a committed batch whose homes are not yet known durable;
// its ring blocks must not be reused. writes holds the images the
// checkpoint must write home (the newest image of each block the batch
// named), and is nil once they have been written.
type liveBatch struct {
	seq    uint64
	blocks int64 // records + commit block
	writes map[int64][]byte
	freed  []int64 // blocks the batch freed, quarantined until it is durable
}

// journal drives the group-commit protocol for one mounted DiskFS.
//
// Lock order: fs.mu > cmu > qmu (a holder of a later lock never takes an
// earlier one). The leader works under cmu only, so staging (fs.mu + qmu)
// proceeds while a leader waits on the device — that overlap is where
// group commit's concurrency win comes from.
type journal struct {
	dev blockdev.Device
	sb  *superblock

	// qmu guards the staging side: the queue of transactions waiting for
	// a leader, and the overlay of staged or committed images that have not
	// been written home, which metaRead must observe (it is the only
	// current copy of a block between its commit and its checkpoint).
	qmu     sync.Mutex
	queue   []*txn
	overlay map[int64][]byte
	// reclaim lists blocks whose freeing batch is behind the watermark:
	// ready to be zeroed and released from quarantine (DiskFS.commitTxn).
	reclaim []int64
	// Per-journal copies of the batching counters, so tests can assert on
	// one mount's behaviour without racing other mounts' global stats.
	statTxns    int64
	statBatches int64
	statBatched int64

	// cmu is the leader lock; it serialises batch commits and checkpoints
	// and guards the ring cursor state below.
	cmu  sync.Mutex
	seq  uint64 // next batch sequence number
	head int64  // ring index of the next record write
	// durableSeq is the durability watermark: every batch with seq <=
	// durableSeq has durable homes, so its ring space is reusable and
	// replay never needs it. Advanced at each Flush. tailSeq in a commit
	// block is durableSeq+1 at commit time.
	durableSeq  uint64
	live        []liveBatch
	checkpoints int64  // checkpoints that wrote at least one home (tests)
	run         []byte // scratch for assembling a commit run
}

// openJournal builds the journal for a mounted device from Mount's scan of
// the ring: the cursor follows the newest valid commit block (Mount has
// already replayed, so everything on the ring is also homed and durable).
func openJournal(dev blockdev.Device, sb *superblock, cands map[uint64]*ringCommit, maxSeq uint64) *journal {
	j := &journal{
		dev:     dev,
		sb:      sb,
		overlay: make(map[int64][]byte),
		seq:     1,
	}
	if maxSeq != 0 {
		newest := cands[maxSeq]
		j.seq = maxSeq + 1
		j.head = (newest.start + int64(len(newest.homes)) + 1) % sb.journalBlocks
		j.durableSeq = maxSeq
	}
	return j
}

// capacity returns the number of record blocks one batch can hold.
func (j *journal) capacity() int {
	c := int(j.sb.journalBlocks) - 1
	if c > maxJournalRecords {
		c = maxJournalRecords
	}
	return c
}

// stage enqueues a finalised transaction for the next leader and publishes
// its images to the overlay. Caller holds fs.mu, so queue order is the
// order transactions observed each other's in-memory state.
func (j *journal) stage(t *txn) {
	j.qmu.Lock()
	defer j.qmu.Unlock()
	j.queue = append(j.queue, t)
	for bn, img := range t.writes {
		j.overlay[bn] = img
	}
}

// readStaged copies the newest image of bn that has not been written home
// into buf, if one exists.
func (j *journal) readStaged(bn int64, buf []byte) bool {
	j.qmu.Lock()
	defer j.qmu.Unlock()
	img, ok := j.overlay[bn]
	if ok {
		copy(buf, img)
	}
	return ok
}

// dropImage releases one block image: the overlay entry still pointing at
// it goes (an entry overwritten by a later stager is left for that
// stager's batch) and the buffer returns to the pool. Caller holds qmu.
func (j *journal) dropImage(bn int64, img []byte) {
	if ov, ok := j.overlay[bn]; ok && sameBuf(ov, img) {
		delete(j.overlay, bn)
	}
	putBlockBuf(img)
}

// commitGroup blocks until t is committed. The first caller in becomes the
// leader and commits batches (its own transaction plus everything staged
// behind it) until its transaction is covered; later callers usually find
// their transaction already committed by the time they get the lock.
func (j *journal) commitGroup(t *txn) error {
	j.cmu.Lock()
	defer j.cmu.Unlock()
	for !t.committed {
		j.commitBatch()
	}
	return t.commitErr
}

// commitBatch drains a capacity-bounded prefix of the staging queue and
// commits it: a checkpoint of older batches when one is due, then the
// record run and commit block as one device write, then one barrier. No
// home is written for the batch itself. Caller holds cmu. Errors are
// delivered to every member transaction via completeBatch.
func (j *journal) commitBatch() {
	capRecords := j.capacity()
	j.qmu.Lock()
	var batch []*txn
	merged := make(map[int64][]byte)
	var order []int64
	sealed := false
	for len(j.queue) > 0 {
		t := j.queue[0]
		fresh := 0
		for _, bn := range t.order {
			if _, ok := merged[bn]; !ok {
				fresh++
			}
		}
		if len(batch) == 0 && fresh > capRecords {
			// A single oversized transaction: refuse it (its caller
			// invalidates and reloads) rather than commit it non-atomically.
			j.queue = j.queue[1:]
			for bn, img := range t.writes {
				j.dropImage(bn, img)
				delete(t.writes, bn)
			}
			t.commitErr = fmt.Errorf("%w: %d blocks > %d record slots", ErrTxnTooBig, fresh, capRecords)
			t.committed = true
			continue
		}
		if len(batch) > 0 && len(order)+fresh > capRecords {
			break // next leader takes it
		}
		for _, bn := range t.order {
			if _, ok := merged[bn]; !ok {
				order = append(order, bn)
			}
			merged[bn] = t.writes[bn]
		}
		if t.seal {
			sealed = true
		}
		batch = append(batch, t)
		j.queue = j.queue[1:]
	}
	j.qmu.Unlock()
	if len(batch) == 0 {
		return
	}
	n := len(order)
	if n == 0 {
		j.completeBatch(batch, merged, nil)
		return
	}
	ot := opJournal.Start()
	defer func() { opJournal.End(ot, int64(n)*BlockSize) }()

	R := j.sb.journalBlocks
	needed := int64(n) + 1
	var used int64 // ring blocks held by live batches
	for _, lb := range j.live {
		used += lb.blocks
	}
	if sealed || needed > R-used {
		// The ring blocks of live batches are about to be overwritten (or
		// a seal wants its batch to be the whole replay window): their
		// homes must be durable first.
		if err := j.checkpoint(true); err != nil {
			j.completeBatch(batch, merged, err)
			return
		}
	} else if used > R/2 {
		// Lazy checkpoint: the homes ride this commit's barrier.
		if err := j.checkpoint(false); err != nil {
			j.completeBatch(batch, merged, err)
			return
		}
	}

	if int64(cap(j.run)) < needed*BlockSize {
		j.run = make([]byte, needed*BlockSize)
	}
	run := j.run[:needed*BlockSize]
	for i, bn := range order {
		copy(run[i*BlockSize:], merged[bn])
	}
	cb := run[n*BlockSize:]
	clear(cb)
	be := binary.BigEndian
	be.PutUint64(cb[0:], journalMagic)
	be.PutUint64(cb[8:], j.seq)
	be.PutUint64(cb[16:], uint64(n))
	be.PutUint64(cb[24:], j.durableSeq+1)
	be.PutUint64(cb[32:], uint64(j.head))
	be.PutUint64(cb[40:], uint64(R))
	be.PutUint64(cb[48:], uint64(len(batch)))
	for i, bn := range order {
		be.PutUint64(cb[commitHdrSize+8*i:], uint64(bn))
	}
	h := crc64.New(crcTable)
	h.Write(cb[8:56])
	h.Write(cb[commitHdrSize : commitHdrSize+8*n])
	h.Write(run[:n*BlockSize])
	be.PutUint64(cb[56:], h.Sum64())
	// One sequential write, two where the batch wraps the ring. Nothing
	// orders the records before the commit block: the CRC covers them, so
	// a torn run is simply a batch that never committed.
	first := min(needed, R-j.head)
	err := writeRun(j.dev, journalBase+j.head, run[:first*BlockSize])
	if err == nil && first < needed {
		err = writeRun(j.dev, journalBase, run[first*BlockSize:])
	}
	if err == nil {
		// Commit barrier: the batch — and every earlier buffered write,
		// including the file data it references and the homes a lazy
		// checkpoint just wrote — becomes durable here.
		err = j.dev.Flush()
	}
	if err != nil {
		j.completeBatch(batch, merged, err)
		return
	}
	j.advanceDurable()
	lb := liveBatch{seq: j.seq, blocks: needed, writes: merged}
	for _, t := range batch {
		lb.freed = append(lb.freed, t.freed...)
	}
	j.live = append(j.live, lb)
	j.head = (j.head + needed) % R
	j.seq++
	j.completeBatch(batch, merged, nil)
}

// checkpoint writes the homes of every live batch that has not been homed:
// the batches are folded newest-wins, the blocks sorted, and adjacent ones
// written as runs, so the superblock, bitmap and hot inode-table block go
// home once per checkpoint however many transactions touched them. With
// barrier set the homes are flushed and the watermark advanced; otherwise
// the next commit barrier does that. Caller holds cmu.
func (j *journal) checkpoint(barrier bool) error {
	final := make(map[int64][]byte)
	for _, lb := range j.live {
		for bn, img := range lb.writes {
			final[bn] = img
		}
	}
	if len(final) > 0 {
		bns := make([]int64, 0, len(final))
		for bn := range final {
			bns = append(bns, bn)
		}
		sort.Slice(bns, func(a, b int) bool { return bns[a] < bns[b] })
		if err := writeSorted(j.dev, bns, func(bn int64) []byte { return final[bn] }); err != nil {
			return err // the images stay live; a later checkpoint retries
		}
		j.checkpoints++
		j.qmu.Lock()
		for i := range j.live {
			for bn, img := range j.live[i].writes {
				j.dropImage(bn, img)
			}
			j.live[i].writes = nil
		}
		j.qmu.Unlock()
	}
	if !barrier {
		return nil
	}
	if err := j.dev.Flush(); err != nil {
		return err
	}
	j.advanceDurable()
	return nil
}

// checkpointAll homes and barriers every committed batch: afterwards the
// device alone holds the committed state and no block is quarantined on
// the journal's account.
func (j *journal) checkpointAll() error {
	j.cmu.Lock()
	defer j.cmu.Unlock()
	return j.checkpoint(true)
}

// advanceDurable moves the durability watermark over the homed prefix of
// the live list after a barrier, and hands the blocks those batches freed
// to the reclaim list. Caller holds cmu; the barrier has just completed, so
// every home write issued before it is durable.
func (j *journal) advanceDurable() {
	for len(j.live) > 0 && j.live[0].writes == nil {
		j.durableSeq = j.live[0].seq
		if freed := j.live[0].freed; len(freed) > 0 {
			j.qmu.Lock()
			j.reclaim = append(j.reclaim, freed...)
			j.qmu.Unlock()
		}
		j.live = j.live[1:]
	}
}

// scrub takes the reclaim list and zeroes its blocks on the device, in
// sorted runs. The caller releases the returned blocks from quarantine
// (also when zeroing failed: they are free either way).
func (j *journal) scrub() ([]int64, error) {
	j.qmu.Lock()
	blocks := j.reclaim
	j.reclaim = nil
	j.qmu.Unlock()
	return blocks, zeroBlocks(j.dev, blocks)
}

// completeBatch publishes the batch outcome to its member transactions and
// settles their images. On success the merged (newest-per-block) images
// pass to the live list and stay in the overlay until their checkpoint;
// everything else goes back to the pool.
func (j *journal) completeBatch(batch []*txn, merged map[int64][]byte, err error) {
	j.qmu.Lock()
	defer j.qmu.Unlock()
	for _, t := range batch {
		for bn, img := range t.writes {
			if err != nil || !sameBuf(merged[bn], img) {
				j.dropImage(bn, img)
			}
			delete(t.writes, bn)
		}
		t.commitErr = err
		t.committed = true
	}
	if err == nil {
		j.statTxns += int64(len(batch))
		j.statBatches++
		journalTxns.Add(int64(len(batch)))
		journalBatches.Inc()
		if len(batch) > 1 {
			j.statBatched += int64(len(batch))
			journalBatched.Add(int64(len(batch)))
		}
	}
}

// --- Replay ---------------------------------------------------------------

// ringCommit is a validated commit block found by scanRing.
type ringCommit struct {
	seq     uint64
	tailSeq uint64
	start   int64 // ring index of the first record block
	ring    int64 // ring size the commit block claims
	homes   []int64
	records [][]byte
}

// scanRing finds every valid commit block on the ring, which it reads in
// one run. ringBlocks > 0 bounds the scan with the superblock's geometry;
// ringBlocks <= 0 means the superblock is untrusted and the scan relies on
// the commit blocks being self-describing (each carries its ring size, and
// its position must be consistent with its startIdx and record count).
// Returns the valid commits by sequence number and the highest sequence
// seen.
func scanRing(dev blockdev.Device, ringBlocks int64) (map[uint64]*ringCommit, uint64, error) {
	nblocks := dev.NumBlocks()
	limit := int64(maxRingBlocks)
	if ringBlocks > 0 && ringBlocks < limit {
		limit = ringBlocks
	}
	if journalBase+limit > nblocks {
		limit = nblocks - journalBase
	}
	cands := make(map[uint64]*ringCommit)
	if limit <= 0 {
		return cands, 0, nil
	}
	ring := make([]byte, limit*BlockSize)
	if err := readRun(dev, journalBase, ring); err != nil {
		return nil, 0, err
	}
	var maxSeq uint64
	be := binary.BigEndian
	for idx := int64(0); idx < limit; idx++ {
		cb := ring[idx*BlockSize : (idx+1)*BlockSize]
		if be.Uint64(cb[0:]) != journalMagic {
			continue
		}
		seq := be.Uint64(cb[8:])
		n := int64(be.Uint64(cb[16:]))
		tail := be.Uint64(cb[24:])
		start := int64(be.Uint64(cb[32:]))
		ringR := int64(be.Uint64(cb[40:]))
		if seq == 0 || tail == 0 || tail > seq {
			continue
		}
		if ringR < 2 || ringR > maxRingBlocks || journalBase+ringR > nblocks {
			continue
		}
		if ringBlocks > 0 && ringR != ringBlocks {
			continue
		}
		if n < 1 || n > ringR-1 || n > maxJournalRecords {
			continue
		}
		// Positional consistency: the commit block sits right after its
		// record run on the ring it claims.
		if start < 0 || start >= ringR || (start+n)%ringR != idx {
			continue
		}
		homes := make([]int64, n)
		bad := false
		for i := range homes {
			homes[i] = int64(be.Uint64(cb[commitHdrSize+8*i:]))
			// A record homes to the superblock or a block past the ring;
			// anything else is garbage from a torn commit block.
			if homes[i] != 0 && homes[i] < journalBase+ringR || homes[i] >= nblocks {
				bad = true
				break
			}
		}
		if bad {
			continue
		}
		h := crc64.New(crcTable)
		h.Write(cb[8:56])
		h.Write(cb[commitHdrSize : commitHdrSize+8*n])
		records := make([][]byte, n)
		for i := range records {
			at := (start + int64(i)) % ringR // < ringR <= limit
			records[i] = ring[at*BlockSize : (at+1)*BlockSize]
			h.Write(records[i])
		}
		if h.Sum64() != be.Uint64(cb[56:]) {
			continue
		}
		// A superblock image must describe this device and the ring the
		// commit claims, or the commit is foreign (an earlier format's
		// ghost) or forged — and replaying it would change what the next
		// scan trusts.
		var sb superblock
		if i := slices.Index(homes, 0); i >= 0 && (sb.decode(records[i]) != nil || sb.validate(nblocks) != nil || sb.journalBlocks != ringR) {
			continue
		}
		if _, dup := cands[seq]; dup {
			continue // stale ghost from a reused region; first wins
		}
		cands[seq] = &ringCommit{seq: seq, tailSeq: tail, start: start, ring: ringR, homes: homes, records: records}
		if seq > maxSeq {
			maxSeq = seq
		}
	}
	return cands, maxSeq, nil
}

// loadRing scans the ring of dev. The superblock bounds the scan when it
// is intact; when it is torn, the self-describing commit blocks carry
// enough geometry to validate themselves, so replay still works — and
// typically restores the superblock, whose image travels in every batch.
func loadRing(dev blockdev.Device) (map[uint64]*ringCommit, uint64, error) {
	nblocks := dev.NumBlocks()
	if nblocks <= journalBase+1 {
		return nil, 0, nil
	}
	var ringBlocks int64
	sbb := make([]byte, BlockSize)
	if err := dev.ReadBlock(0, sbb); err == nil {
		var sb superblock
		if sb.decode(sbb) == nil && sb.validate(nblocks) == nil {
			ringBlocks = sb.journalBlocks
		}
	}
	return scanRing(dev, ringBlocks)
}

// replayJournal re-applies the committed batches sitting on the journal
// ring, if any. Returns whether anything was actually re-applied.
func replayJournal(dev blockdev.Device) (bool, error) {
	cands, maxSeq, err := loadRing(dev)
	if err != nil {
		return false, err
	}
	return replayRing(dev, cands, maxSeq)
}

// replayRing applies a ring scan. The replay window is [tailSeq of the
// newest valid commit, newest]: older batches are checkpointed and durable
// by the watermark invariant. Within the window the longest valid suffix is
// applied in sequence order (later images win), which is idempotent —
// replay after replay is a no-op. Torn or absent batches never committed
// and are silently discarded.
func replayRing(dev blockdev.Device, cands map[uint64]*ringCommit, maxSeq uint64) (bool, error) {
	if maxSeq == 0 {
		return false, nil
	}
	lo := cands[maxSeq].tailSeq
	start := maxSeq
	for start > lo && cands[start-1] != nil {
		start--
	}
	// Fold the window into final per-block images (later batches win).
	final := make(map[int64][]byte)
	for s := start; s <= maxSeq; s++ {
		c := cands[s]
		for i, bn := range c.homes {
			final[bn] = c.records[i]
		}
	}
	bns := make([]int64, 0, len(final))
	for bn := range final {
		bns = append(bns, bn)
	}
	sort.Slice(bns, func(a, b int) bool { return bns[a] < bns[b] })
	// A fully checkpointed window already matches the home locations (the
	// normal state after a clean unmount); applying it again would be a
	// harmless no-op, so skip it and only report replays that actually
	// recovered something.
	home := make([]byte, BlockSize)
	current := true
	for _, bn := range bns {
		if err := dev.ReadBlock(bn, home); err != nil {
			return false, err
		}
		if !bytes.Equal(home, final[bn]) {
			current = false
			break
		}
	}
	if current {
		return false, nil
	}
	if err := writeSorted(dev, bns, func(bn int64) []byte { return final[bn] }); err != nil {
		return false, err
	}
	if err := dev.Flush(); err != nil {
		return false, err
	}
	journalReplayed.Inc()
	return true, nil
}

// eraseJournal invalidates every commit block on the ring. fsck uses it
// after repairs: replaying a stale batch over a repaired image could
// reintroduce the inconsistency.
func eraseJournal(dev blockdev.Device) error {
	cands, maxSeq, err := loadRing(dev)
	if err != nil || maxSeq == 0 {
		return err
	}
	for _, c := range cands {
		idx := (c.start + int64(len(c.homes))) % c.ring
		if err := dev.WriteBlock(journalBase+idx, zeroBlock[:]); err != nil {
			return err
		}
	}
	return dev.Flush()
}

// --- DiskFS transaction plumbing ------------------------------------------

// metaWrite stages a metadata block write in the current transaction,
// keeping a cached inode-table image of the block in step. Caller holds
// fs.mu.
func (fs *DiskFS) metaWrite(bn int64, buf []byte) error {
	if img, ok := fs.itable[bn]; ok && !sameBuf(img, buf) {
		copy(img, buf)
	}
	if fs.txn == nil {
		return errNoTxn
	}
	fs.txn.put(bn, buf)
	return nil
}

// metaRead reads a metadata block, observing writes staged in the current
// transaction, then the journal's overlay (images staged by queued
// neighbours or committed but not yet checkpointed), then the device.
// Caller holds fs.mu.
func (fs *DiskFS) metaRead(bn int64, buf []byte) error {
	if fs.txn != nil {
		if img, ok := fs.txn.writes[bn]; ok {
			copy(buf, img)
			return nil
		}
	}
	if fs.jnl != nil && fs.jnl.readStaged(bn, buf) {
		return nil
	}
	return fs.dev.ReadBlock(bn, buf)
}

// txnRegister marks ci structurally changed by the current transaction, so
// commit writes it back atomically with the bitmap and pointer blocks it
// references. Caller holds fs.mu.
func (fs *DiskFS) txnRegister(ci *cachedInode) {
	if fs.txn != nil {
		fs.txn.inodes[ci.ino] = ci
	}
}

// freeBlock releases bn into quarantine: free in the bitmap at once, but
// zeroed and allocatable only once the freeing transaction is behind the
// durability watermark (so a discarded transaction cannot have destroyed
// committed data, and no stale image can land on a reused block). Caller
// holds fs.mu.
func (fs *DiskFS) freeBlock(bn int64) error {
	if fs.txn == nil {
		return errNoTxn
	}
	if err := fs.alloc.free(bn); err != nil {
		return err
	}
	fs.txn.freed = append(fs.txn.freed, bn)
	return nil
}

// reclaim zeroes the blocks the watermark has released from quarantine and
// hands them back to the allocator. Caller holds fs.mu.
func (fs *DiskFS) reclaim() error {
	blocks, err := fs.jnl.scrub()
	for _, bn := range blocks {
		fs.alloc.release(bn)
	}
	return err
}

// withTxn runs fn inside a metadata transaction and commits it. The
// transaction commits even when fn fails partway: the disk layer's caches
// are write-through, so the in-memory state already reflects the partial
// mutation and the disk must follow it. Only a commit (device) failure
// leaves the two out of step, in which case the caches are invalidated and
// reloaded from the device. Caller holds fs.mu; the lock is dropped while
// the commit waits on the journal (the staged images keep concurrent
// operations coherent), which is what lets independent mutations share one
// commit barrier.
func (fs *DiskFS) withTxn(fn func() error) error {
	if fs.txn != nil {
		return fn() // nested: the outermost caller commits
	}
	fs.txn = newTxn()
	opErr := fn()
	if cerr := fs.commitTxn(true); cerr != nil {
		if opErr != nil {
			return fmt.Errorf("%w (commit also failed: %v)", opErr, cerr)
		}
		return cerr
	}
	return opErr
}

// commitTxn finalises the current transaction: registered inodes and the
// superblock are folded in, the transaction is staged and group-committed,
// and blocks the watermark has released from quarantine are zeroed and
// handed back to the allocator. Caller holds fs.mu; with unlock set the
// lock is released around the journal wait and the zeroing so other
// operations can stage behind this one and share its leader's barrier
// (txnMaybeSplit passes false: a mid-operation split must not expose its
// intermediate in-memory state).
func (fs *DiskFS) commitTxn(unlock bool) error {
	t := fs.txn
	if t == nil {
		return nil
	}
	staged := false
	var scrubbed []int64
	var scrubErr error
	commitErr := func() error {
		for _, ci := range t.inodes {
			if err := fs.writeInode(ci); err != nil {
				return err
			}
		}
		if len(t.order) == 0 {
			return nil
		}
		sbbuf := getBlockBuf()
		defer putBlockBuf(sbbuf)
		clear(sbbuf) // encode fills only a prefix; the block tail must be zeros
		fs.sb.encode(sbbuf)
		t.put(0, sbbuf)
		fs.txn = nil
		fs.jnl.stage(t)
		staged = true
		if unlock {
			fs.mu.Unlock()
			defer fs.mu.Lock()
		}
		err := fs.jnl.commitGroup(t)
		if err == nil {
			scrubbed, scrubErr = fs.jnl.scrub()
		}
		return err
	}()
	fs.txn = nil
	if !staged {
		t.release()
	}
	if commitErr != nil {
		fs.invalidateCaches()
		return commitErr
	}
	for _, bn := range scrubbed {
		fs.alloc.release(bn)
	}
	return scrubErr
}

// txnMaybeSplit commits the current transaction and opens a fresh one when
// it is close to journal capacity. Long frees (truncating a large file)
// call it at points where the intermediate state is self-consistent: ci is
// registered in both halves, so each commit carries the inode image
// matching its bitmap and pointer-block changes. Caller holds fs.mu; the
// split commits without dropping it.
func (fs *DiskFS) txnMaybeSplit(ci *cachedInode) error {
	t := fs.txn
	if t == nil || len(t.order) < fs.jnl.capacity()/2 {
		return nil
	}
	if err := fs.commitTxn(false); err != nil {
		return err
	}
	fs.txn = newTxn()
	fs.txnRegister(ci)
	return nil
}

// invalidateCaches reloads the disk layer's write-through caches from the
// device after a failed commit, the one case where memory and disk may
// disagree. Best-effort: a device that is failing outright will surface
// errors on the next operation anyway.
func (fs *DiskFS) invalidateCaches() {
	fs.icache = make(map[uint64]*cachedInode)
	fs.dcache = make(map[uint64][]dirEntry)
	fs.mcache = make(map[int64][]int64)
	fs.itable = make(map[int64][]byte)
	// Committed batches live only in the ring and the overlay until their
	// checkpoint; send them home before re-reading state from the device.
	_ = fs.jnl.checkpointAll()
	buf := make([]byte, BlockSize)
	if err := fs.dev.ReadBlock(0, buf); err == nil {
		var sb superblock
		if sb.decode(buf) == nil {
			fs.sb = sb
		}
	}
	if a, err := loadAllocator(fs.dev, &fs.sb); err == nil {
		a.write = fs.metaWrite
		// Holds outlive the reload: in-flight page-out reservations, and
		// blocks still quarantined if the checkpoint above failed.
		for bn := fs.sb.dataStart; bn < fs.sb.nblocks; bn++ {
			if fs.alloc.isHeld(bn) && !a.isSet(bn) {
				a.hold(bn)
			}
		}
		fs.alloc = a
	}
}

package blockdev

import (
	"errors"
	"math/rand"
	"sync"
)

// ErrPowerCut is returned for I/O against a CrashDevice whose power has
// been cut (and not yet restored with Restart).
var ErrPowerCut = errors.New("blockdev: simulated power failure")

// CrashDevice wraps a Device with a volatile write cache, modelling the
// disk-drive behaviour that makes crash consistency hard:
//
//   - WriteBlock/WriteRun buffer in the cache; the data is visible to
//     subsequent reads but is NOT stable.
//   - Flush is the write barrier: it drains the cache to the underlying
//     device in submission order and then flushes that device. Everything
//     written before a Flush that returned nil survives a power cut.
//   - PowerCut models pulling the plug: buffered writes are lost. With
//     SetReorder(true) an arbitrary subset of the buffered writes survives
//     instead (the drive was opportunistically writing back, in any
//     order). With SetTorn(true) one additional buffered write survives
//     only as a prefix of the block — a torn write — with the rest of the
//     block keeping its old contents.
//   - CrashAfterN arms a trap that cuts the power at the Nth subsequent
//     buffered write, letting a harness stop the world at every write
//     index of a workload. After the cut, all I/O fails with ErrPowerCut
//     until Restart.
//
// The crash-consistency harness in internal/disklayer sweeps a workload
// with this device; the disk layer's journal is what makes the sweep pass.
type CrashDevice struct {
	mu      sync.Mutex
	under   Device
	pending map[int64][]byte // volatile cache: bn -> latest buffered content
	order   []int64          // submission order of pending (dedup'd: latest position)
	rng     *rand.Rand
	torn    bool
	reorder bool
	armed   int64 // cut power after this many more buffered writes; <0 disarmed
	writes  int64 // total writes buffered over the device's lifetime
	dead    bool
	closed  bool
}

var (
	_ Device    = (*CrashDevice)(nil)
	_ RunReader = (*CrashDevice)(nil)
)

// NewCrash wraps under in a crash-injecting volatile write cache. The seed
// drives the torn/reordered survivor selection at PowerCut.
func NewCrash(under Device, seed int64) *CrashDevice {
	return &CrashDevice{
		under:   under,
		pending: make(map[int64][]byte),
		rng:     rand.New(rand.NewSource(seed)),
		armed:   -1,
	}
}

// SetTorn enables torn-write simulation at PowerCut: one buffered write
// survives as a partial block.
func (d *CrashDevice) SetTorn(on bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.torn = on
}

// SetReorder enables write reordering at PowerCut: each buffered write
// independently survives with probability 1/2, modelling a drive that was
// writing its cache back in an arbitrary order when the power failed.
func (d *CrashDevice) SetReorder(on bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.reorder = on
}

// CrashAfterN arms the device to cut its own power when the Nth subsequent
// write is buffered (that write is included in the volatile cache, so it
// may survive under the reorder knob). A negative n disarms the trap.
func (d *CrashDevice) CrashAfterN(n int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if n <= 0 {
		d.armed = -1
		return
	}
	d.armed = n
}

// WriteCount returns the number of block writes buffered over the device's
// lifetime (surviving power cuts); harnesses use it to size a
// crash-at-every-write sweep.
func (d *CrashDevice) WriteCount() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.writes
}

// PowerCut simulates power loss: buffered writes are dropped, except for
// the survivors selected by the torn/reorder knobs, and the device fails
// all I/O with ErrPowerCut until Restart.
func (d *CrashDevice) PowerCut() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.powerCutLocked()
}

// powerCutLocked applies the survivor model and kills the device. Caller
// holds d.mu.
func (d *CrashDevice) powerCutLocked() error {
	if d.dead {
		return nil
	}
	var firstErr error
	persist := func(bn int64, buf []byte) {
		if err := d.under.WriteBlock(bn, buf); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	survivors := d.order
	if !d.reorder {
		survivors = nil
	}
	var candidates []int64 // buffered writes that did NOT survive (torn pool)
	for _, bn := range survivors {
		if d.rng.Intn(2) == 0 {
			persist(bn, d.pending[bn])
		} else {
			candidates = append(candidates, bn)
		}
	}
	if !d.reorder {
		candidates = d.order
	}
	if d.torn && len(candidates) > 0 {
		// One write lands torn: a random prefix of the new content is
		// persisted over the old block contents.
		bn := candidates[d.rng.Intn(len(candidates))]
		old := make([]byte, BlockSize)
		if err := d.under.ReadBlock(bn, old); err == nil {
			cut := d.rng.Intn(BlockSize)
			copy(old[:cut], d.pending[bn][:cut])
			persist(bn, old)
		}
	}
	d.pending = make(map[int64][]byte)
	d.order = nil
	d.dead = true
	return firstErr
}

// Restart restores power after a PowerCut: the device becomes usable again
// with only the stable (flushed or surviving) state visible.
func (d *CrashDevice) Restart() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.dead = false
	d.armed = -1
	d.pending = make(map[int64][]byte)
	d.order = nil
}

// buffer records one block write into the volatile cache and trips the
// CrashAfterN trap. Caller holds d.mu.
func (d *CrashDevice) buffer(bn int64, buf []byte) error {
	cp := make([]byte, BlockSize)
	copy(cp, buf)
	if _, ok := d.pending[bn]; ok {
		// Rewrite: drop the stale position so order reflects the final
		// submission sequence.
		for i, p := range d.order {
			if p == bn {
				d.order = append(d.order[:i], d.order[i+1:]...)
				break
			}
		}
	}
	d.pending[bn] = cp
	d.order = append(d.order, bn)
	d.writes++
	if d.armed >= 0 {
		d.armed--
		if d.armed <= 0 {
			return d.powerCutLocked()
		}
	}
	return nil
}

// check validates device state for an I/O. Caller holds d.mu.
func (d *CrashDevice) check(bn, n int64) error {
	if d.closed {
		return ErrClosed
	}
	if d.dead {
		return ErrPowerCut
	}
	if bn < 0 || bn+n > d.under.NumBlocks() {
		return ErrOutOfRange
	}
	return nil
}

// WriteBlock implements Device: the one-block WriteRun.
func (d *CrashDevice) WriteBlock(bn int64, buf []byte) error { return oneBlock(d.WriteRun, bn, buf) }

// ReadBlock implements Device: the one-block ReadRun.
func (d *CrashDevice) ReadBlock(bn int64, buf []byte) error { return oneBlock(d.ReadRun, bn, buf) }

// WriteRun implements RunReader: the run lands in the volatile cache.
// Each block buffers (and counts) individually, so a crash can tear a run
// in the middle.
func (d *CrashDevice) WriteRun(bn int64, buf []byte) error { return d.run(bn, buf, d.buffer) }

// ReadRun implements RunReader: reads observe the volatile cache (the
// drive returns its freshest data even before it is stable).
func (d *CrashDevice) ReadRun(bn int64, buf []byte) error {
	return d.run(bn, buf, func(bn int64, blk []byte) error {
		if p, ok := d.pending[bn]; ok {
			copy(blk, p)
			return nil
		}
		return d.under.ReadBlock(bn, blk)
	})
}

// run checks an I/O and moves its blocks one at a time under the lock.
func (d *CrashDevice) run(bn int64, buf []byte, move func(bn int64, blk []byte) error) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.check(bn, int64(len(buf)/BlockSize)); err != nil {
		return err
	}
	return eachBlock(bn, buf, move)
}

// Flush implements Device: the write barrier. Buffered writes drain to the
// underlying device in submission order, then that device flushes.
func (d *CrashDevice) Flush() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.check(0, 0); err != nil {
		return err
	}
	for _, bn := range d.order {
		if err := d.under.WriteBlock(bn, d.pending[bn]); err != nil {
			return err
		}
	}
	d.pending = make(map[int64][]byte)
	d.order = nil
	return d.under.Flush()
}

// NumBlocks implements Device.
func (d *CrashDevice) NumBlocks() int64 { return d.under.NumBlocks() }

// Close implements Device.
func (d *CrashDevice) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.closed = true
	return d.under.Close()
}

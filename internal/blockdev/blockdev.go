// Package blockdev provides the simulated stable-storage substrate that the
// disk layer (the on-disk UFS-compatible base file system of the paper) is
// built on.
//
// The paper's evaluation ran against a 424 MB 4400 RPM disk on a
// SPARCstation 10. This reproduction substitutes a latency-modelled RAM
// disk: every I/O is charged a seek + rotational + transfer delay derived
// from a configurable profile. The property the evaluation depends on — disk
// I/O being orders of magnitude more expensive than a cross-domain call, so
// stacking overhead vanishes on uncached operations (Table 2, rows "write
// No"/"read No") — is preserved by the model.
//
// # Devices
//
// Device is the interface: ReadBlock/WriteBlock for single blocks,
// ReadRun/WriteRun for contiguous multi-block transfers that pay one
// positioning delay for the whole run (what makes extent-clustered
// write-back, sequential read-ahead, and the journal's one-run commits,
// merged checkpoints and by-the-run ring and inode-table reads worth
// doing), and Flush as the write barrier — the only durability point the
// crash model honours.
//
//   - NewMem: the latency-modelled RAM disk. The modelled delay is slept
//     outside the device mutex, so concurrent callers overlap their I/O
//     latency the way they would against real hardware — group commit's
//     barrier-sharing is measurable even on one CPU because of this.
//   - OpenFile: the same model persisted to a backing file. Both devices
//     run every I/O through one transfer routine, so the model is charged
//     and traced (blockdev.read, blockdev.write) in one place.
//   - NewCrash: CrashDevice, the power-failure harness — a volatile write
//     cache in front of any device; PowerCut discards it, with optional
//     torn-write and reorder injection at the cut (see docs/FAILURES.md,
//     "Crash model & recovery").
//   - NewFault: FaultDevice, error injection — it asks a function about
//     every block before an I/O passes down to the device it wraps. The
//     failure tests of the disk layer, mirrorfs and the root package
//     build their disks on it.
//
// Latency profiles: ProfileFast keeps the ratios of the paper's 4400 RPM
// disk at 1000x speed, ProfileNone charges nothing (pure functional
// testing).
package blockdev

import (
	"errors"
	"sync"
	"time"

	"springfs/internal/stats"
)

// BlockSize is the device block size in bytes. It matches the VM page size
// so a page maps onto exactly one device block.
const BlockSize = 4096

// Errors returned by the device.
var (
	// ErrOutOfRange is returned for I/O beyond the end of the device.
	ErrOutOfRange = errors.New("blockdev: block number out of range")
	// ErrBadSize is returned when a buffer is not exactly one block long.
	ErrBadSize = errors.New("blockdev: buffer must be BlockSize bytes")
	// ErrIO is the generic I/O error; fault functions return it.
	ErrIO = errors.New("blockdev: I/O error")
	// ErrClosed is returned after Close.
	ErrClosed = errors.New("blockdev: device closed")
)

// Instrumented operations: always-on (device I/O dwarfs the clock reads).
// Spans cover the modelled seek/rotation/transfer sleep, so device time
// shows up under these names in traces.
var (
	opRead  = stats.NewOp("blockdev.read", stats.BoundaryDirect)
	opWrite = stats.NewOp("blockdev.write", stats.BoundaryDirect)
)

// LatencyProfile models the per-I/O cost of the device.
type LatencyProfile struct {
	// Seek is the average positioning cost charged when an I/O is not
	// sequential to the previous one.
	Seek time.Duration
	// Rotation is the average rotational delay charged on every I/O.
	Rotation time.Duration
	// PerBlock is the media transfer time for one block.
	PerBlock time.Duration
}

// ProfileFast keeps the ratios of the paper's 424 MB 4400 RPM disk (~12 ms
// average seek, ~6.8 ms half-revolution, ~2.6 ms per 4 KB block) at 1000x
// speed, so tests that only need "an I/O costs something" stay quick. Its
// delays are under 1 ms, which is below the sandbox timer floor (see
// benchmark/README.md): timing a run on it measures the timer, so the
// benchmark uses 0 or at least 2 ms instead.
var ProfileFast = LatencyProfile{
	Seek:     12 * time.Microsecond,
	Rotation: 6800 * time.Nanosecond,
	PerBlock: 2600 * time.Nanosecond,
}

// ProfileNone disables latency simulation; unit tests use it.
var ProfileNone = LatencyProfile{}

// Device is a fixed-size block device.
type Device interface {
	// ReadBlock reads block bn into buf (len(buf) == BlockSize).
	ReadBlock(bn int64, buf []byte) error
	// WriteBlock writes buf (len(buf) == BlockSize) to block bn.
	WriteBlock(bn int64, buf []byte) error
	// NumBlocks returns the device capacity in blocks.
	NumBlocks() int64
	// Flush forces all completed writes to stable storage.
	Flush() error
	// Close releases the device.
	Close() error
}

// core is what MemDevice and FileDevice share: the latency model, the head
// position, the closed flag, the I/O counters and the one transfer path.
// A device adds only the move of its storage.
type core struct {
	mu      sync.Mutex
	nblocks int64
	profile LatencyProfile
	lastBn  int64 // the block the head is over; -2 so no first I/O is sequential
	closed  bool

	// Reads and Writes count block I/Os: the benchmark's device counts, and
	// the cache tests' (stat served without disk I/O, per Table 2).
	Reads  stats.Counter
	Writes stats.Counter
}

// NumBlocks returns the device capacity in blocks.
func (c *core) NumBlocks() int64 { return c.nblocks }

// IOCount returns total reads and writes performed.
func (c *core) IOCount() (reads, writes int64) { return c.Reads.Value(), c.Writes.Value() }

// ifOpen runs fn under the lock, unless the device is closed.
func (c *core) ifOpen(fn func() error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	return fn()
}

// close closes the device with fn, once.
func (c *core) close(fn func() error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	return fn()
}

// charge returns the modelled time of an n-block transfer starting at bn,
// and moves the head to its last block: one rotational delay and n blocks
// of media time, plus a seek unless the transfer starts right after the
// previous one ended. Caller holds c.mu.
func (c *core) charge(bn, n int64) time.Duration {
	delay := c.profile.Rotation + time.Duration(n)*c.profile.PerBlock
	if bn != c.lastBn+1 {
		delay += c.profile.Seek
	}
	c.lastBn = bn + n - 1
	return delay
}

// transfer is every I/O of the device: it checks the buffer, the device
// and the range, charges the transfer and runs move under the lock, and
// sleeps the charge outside it, so concurrent callers overlap their I/O
// latency the way they would against real hardware. move gets the blocks
// bn.. that buf covers.
func (c *core) transfer(bn int64, buf []byte, write bool, move func() error) error {
	if len(buf) == 0 || len(buf)%BlockSize != 0 {
		return ErrBadSize
	}
	n := int64(len(buf) / BlockSize)
	op, count := opRead, &c.Reads
	if write {
		op, count = opWrite, &c.Writes
	}
	t := op.Start()
	c.mu.Lock()
	var delay time.Duration
	var err error
	switch {
	case c.closed:
		err = ErrClosed
	case bn < 0 || bn+n > c.nblocks:
		err = ErrOutOfRange
	default:
		delay = c.charge(bn, n)
		err = move()
		count.Add(n)
	}
	c.mu.Unlock()
	if err != nil {
		return err
	}
	if delay > 0 {
		time.Sleep(delay)
	}
	op.End(t, int64(len(buf)))
	return nil
}

// MemDevice is a latency-modelled RAM-backed block device.
type MemDevice struct {
	core
	blocks [][]byte // nil until first written: reads as zeros
}

// NewMem creates a RAM device with n blocks and the given latency profile.
func NewMem(n int64, profile LatencyProfile) *MemDevice {
	return &MemDevice{core: core{nblocks: n, profile: profile, lastBn: -2}, blocks: make([][]byte, n)}
}

// ReadBlock implements Device: the one-block ReadRun.
func (d *MemDevice) ReadBlock(bn int64, buf []byte) error { return oneBlock(d.ReadRun, bn, buf) }

// WriteBlock implements Device: the one-block WriteRun.
func (d *MemDevice) WriteBlock(bn int64, buf []byte) error { return oneBlock(d.WriteRun, bn, buf) }

// ReadRun implements RunReader: consecutive blocks starting at bn, for one
// latency charge — a track-sized contiguous transfer, the behaviour
// clustered page-ins (the paper's Section 8 extension) rely on.
func (d *MemDevice) ReadRun(bn int64, buf []byte) error {
	return d.transfer(bn, buf, false, func() error {
		for i := range int64(len(buf) / BlockSize) {
			dst, src := buf[i*BlockSize:(i+1)*BlockSize], d.blocks[bn+i]
			if src == nil {
				clear(dst)
			} else {
				copy(dst, src)
			}
		}
		return nil
	})
}

// WriteRun writes consecutive blocks starting at bn with a single latency
// charge (see ReadRun).
func (d *MemDevice) WriteRun(bn int64, buf []byte) error {
	return d.transfer(bn, buf, true, func() error {
		for i := range int64(len(buf) / BlockSize) {
			dst := d.blocks[bn+i]
			if dst == nil {
				dst = make([]byte, BlockSize)
				d.blocks[bn+i] = dst
			}
			copy(dst, buf[i*BlockSize:])
		}
		return nil
	})
}

// Flush implements Device; a RAM device has nothing to flush.
func (d *MemDevice) Flush() error { return d.ifOpen(func() error { return nil }) }

// Close implements Device.
func (d *MemDevice) Close() error { return d.close(func() error { return nil }) }

// oneBlock is a ReadBlock or WriteBlock: the one-block case of run.
func oneBlock(run func(int64, []byte) error, bn int64, buf []byte) error {
	if len(buf) != BlockSize {
		return ErrBadSize
	}
	return run(bn, buf)
}

// eachBlock is a run moved one block at a time by one.
func eachBlock(bn int64, buf []byte, one func(bn int64, blk []byte) error) error {
	if len(buf) == 0 || len(buf)%BlockSize != 0 {
		return ErrBadSize
	}
	for i := range int64(len(buf) / BlockSize) {
		if err := one(bn+i, buf[i*BlockSize:(i+1)*BlockSize]); err != nil {
			return err
		}
	}
	return nil
}

// RunReader is implemented by devices supporting contiguous multi-block
// transfers: ReadRun and WriteRun move len(buf)/BlockSize consecutive
// blocks starting at bn in one call, paying a single positioning delay
// (seek + rotation) for the whole run plus per-block transfer time. buf
// must be a non-empty multiple of BlockSize and the run must lie within
// the device. Clustered page-ins (read-ahead, Section 8), clustered
// write-back and the disk layer's journal (a commit is one run; so are a
// checkpoint's adjacent homes and Mount's read of the ring) all lean on
// this interface: it is what turns an N-block extent into one device
// transfer instead of N.
type RunReader interface {
	ReadRun(bn int64, buf []byte) error
	WriteRun(bn int64, buf []byte) error
}

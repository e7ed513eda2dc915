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
// The device also supports error injection, used by the failure-injection
// tests of the disk layer and of the mirroring file system.
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
//   - OpenFile: the same model persisted to a backing file.
//   - NewCrash: CrashDevice, the power-failure harness — a volatile write
//     cache in front of any device; PowerCut discards it, with optional
//     torn-write and reorder injection at the cut (see docs/FAILURES.md,
//     "Crash model & recovery").
//
// MemDevice additionally injects errors (FailReads/FailWrites/MarkBad/
// FailAfter), which the disk layer's and mirrorfs's failure tests use.
//
// Latency profiles: ProfileFast keeps the ratios of the paper's 4400 RPM
// disk at 1000x speed, ProfileNone charges nothing (pure functional
// testing).
package blockdev

import (
	"errors"
	"fmt"
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
	// ErrIO is the generic injected I/O error.
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

// MemDevice is a latency-modelled RAM-backed block device.
type MemDevice struct {
	mu      sync.Mutex
	blocks  [][]byte
	profile LatencyProfile
	lastBn  int64
	closed  bool

	faults faultState

	// Reads and Writes count block I/Os; tests use them to verify cache
	// behaviour (e.g. the disk layer's i-node cache servicing stat without
	// disk I/O, per the Table 2 caption).
	Reads  stats.Counter
	Writes stats.Counter
}

// faultState holds the error-injection configuration.
type faultState struct {
	failReads  bool
	failWrites bool
	badBlocks  map[int64]bool
	failAfter  int64 // fail all I/O after this many operations; <0 disables
	ops        int64
}

// NewMem creates a RAM device with n blocks and the given latency profile.
func NewMem(n int64, profile LatencyProfile) *MemDevice {
	return &MemDevice{
		blocks:  make([][]byte, n),
		profile: profile,
		lastBn:  -2, // nothing is "sequential" to the first I/O
		faults:  faultState{failAfter: -1},
	}
}

// NumBlocks returns the device capacity in blocks.
func (d *MemDevice) NumBlocks() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return int64(len(d.blocks))
}

// charge computes (under d.mu) the latency of an I/O to block bn and
// updates the head position. The sleep itself happens outside the lock so
// independent I/Os overlap, like a request queue with multiple spindles
// would not — but contention modelling beyond this is out of scope.
func (d *MemDevice) charge(bn int64) time.Duration {
	delay := d.profile.Rotation + d.profile.PerBlock
	if bn != d.lastBn+1 {
		delay += d.profile.Seek
	}
	d.lastBn = bn
	return delay
}

// checkFaults returns an injected error for this I/O if one is configured.
func (d *MemDevice) checkFaults(bn int64, write bool) error {
	f := &d.faults
	f.ops++
	if f.failAfter >= 0 && f.ops > f.failAfter {
		return fmt.Errorf("%w (injected after %d ops)", ErrIO, f.failAfter)
	}
	if f.badBlocks[bn] {
		return fmt.Errorf("%w (injected bad block %d)", ErrIO, bn)
	}
	if write && f.failWrites {
		return fmt.Errorf("%w (injected write failure)", ErrIO)
	}
	if !write && f.failReads {
		return fmt.Errorf("%w (injected read failure)", ErrIO)
	}
	return nil
}

// ReadBlock implements Device.
func (d *MemDevice) ReadBlock(bn int64, buf []byte) error {
	if len(buf) != BlockSize {
		return ErrBadSize
	}
	t := opRead.Start()
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return ErrClosed
	}
	if bn < 0 || bn >= int64(len(d.blocks)) {
		d.mu.Unlock()
		return ErrOutOfRange
	}
	if err := d.checkFaults(bn, false); err != nil {
		d.mu.Unlock()
		return err
	}
	delay := d.charge(bn)
	src := d.blocks[bn]
	if src == nil {
		for i := range buf {
			buf[i] = 0
		}
	} else {
		copy(buf, src)
	}
	d.Reads.Inc()
	d.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	opRead.End(t, BlockSize)
	return nil
}

// WriteBlock implements Device.
func (d *MemDevice) WriteBlock(bn int64, buf []byte) error {
	if len(buf) != BlockSize {
		return ErrBadSize
	}
	t := opWrite.Start()
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return ErrClosed
	}
	if bn < 0 || bn >= int64(len(d.blocks)) {
		d.mu.Unlock()
		return ErrOutOfRange
	}
	if err := d.checkFaults(bn, true); err != nil {
		d.mu.Unlock()
		return err
	}
	delay := d.charge(bn)
	dst := d.blocks[bn]
	if dst == nil {
		dst = make([]byte, BlockSize)
		d.blocks[bn] = dst
	}
	copy(dst, buf)
	d.Writes.Inc()
	d.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	opWrite.End(t, BlockSize)
	return nil
}

// Flush implements Device; a RAM device has nothing to flush.
func (d *MemDevice) Flush() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	return nil
}

// Close implements Device.
func (d *MemDevice) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.closed = true
	return nil
}

// FailReads configures the device to fail all reads (fault injection).
func (d *MemDevice) FailReads(fail bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.faults.failReads = fail
}

// FailWrites configures the device to fail all writes (fault injection).
func (d *MemDevice) FailWrites(fail bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.faults.failWrites = fail
}

// MarkBad makes I/O to block bn fail.
func (d *MemDevice) MarkBad(bn int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.faults.badBlocks == nil {
		d.faults.badBlocks = make(map[int64]bool)
	}
	d.faults.badBlocks[bn] = true
}

// FailAfter makes all I/O fail after n more operations. Passing a negative
// n disables the fault.
func (d *MemDevice) FailAfter(n int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if n < 0 {
		d.faults.failAfter = -1
		return
	}
	d.faults.failAfter = d.faults.ops + n
}

// IOCount returns total reads and writes performed.
func (d *MemDevice) IOCount() (reads, writes int64) {
	return d.Reads.Value(), d.Writes.Value()
}

// ReadRun reads len(buf)/BlockSize consecutive blocks starting at bn with
// a single latency charge: one positioning delay (if the run is not
// sequential to the previous I/O) plus per-block transfer time, slept
// once. It models a track-sized contiguous transfer, the behaviour
// clustered page-ins (the paper's Section 8 extension) rely on.
func (d *MemDevice) ReadRun(bn int64, buf []byte) error {
	if len(buf) == 0 || len(buf)%BlockSize != 0 {
		return ErrBadSize
	}
	n := int64(len(buf) / BlockSize)
	t := opRead.Start()
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return ErrClosed
	}
	if bn < 0 || bn+n > int64(len(d.blocks)) {
		d.mu.Unlock()
		return ErrOutOfRange
	}
	var delay time.Duration
	for i := int64(0); i < n; i++ {
		if err := d.checkFaults(bn+i, false); err != nil {
			d.mu.Unlock()
			return err
		}
		delay += d.profile.PerBlock
		src := d.blocks[bn+i]
		dst := buf[i*BlockSize : (i+1)*BlockSize]
		if src == nil {
			for j := range dst {
				dst[j] = 0
			}
		} else {
			copy(dst, src)
		}
		d.Reads.Inc()
	}
	delay += d.profile.Rotation
	if bn != d.lastBn+1 {
		delay += d.profile.Seek
	}
	d.lastBn = bn + n - 1
	d.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	opRead.End(t, int64(len(buf)))
	return nil
}

// WriteRun writes consecutive blocks starting at bn with a single latency
// charge (see ReadRun).
func (d *MemDevice) WriteRun(bn int64, buf []byte) error {
	if len(buf) == 0 || len(buf)%BlockSize != 0 {
		return ErrBadSize
	}
	n := int64(len(buf) / BlockSize)
	t := opWrite.Start()
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return ErrClosed
	}
	if bn < 0 || bn+n > int64(len(d.blocks)) {
		d.mu.Unlock()
		return ErrOutOfRange
	}
	var delay time.Duration
	for i := int64(0); i < n; i++ {
		if err := d.checkFaults(bn+i, true); err != nil {
			d.mu.Unlock()
			return err
		}
		delay += d.profile.PerBlock
		dst := d.blocks[bn+i]
		if dst == nil {
			dst = make([]byte, BlockSize)
			d.blocks[bn+i] = dst
		}
		copy(dst, buf[i*BlockSize:(i+1)*BlockSize])
		d.Writes.Inc()
	}
	delay += d.profile.Rotation
	if bn != d.lastBn+1 {
		delay += d.profile.Seek
	}
	d.lastBn = bn + n - 1
	d.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	opWrite.End(t, int64(len(buf)))
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

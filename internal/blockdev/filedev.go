package blockdev

import (
	"fmt"
	"os"
)

// FileDevice is a block device backed by a real file on the host file
// system, for users who want a springfs volume that persists across
// process restarts. The same latency model as MemDevice can be applied on
// top of the host's own I/O cost (usually it is left off).
type FileDevice struct {
	core
	f *os.File
}

var (
	_ Device    = (*FileDevice)(nil)
	_ RunReader = (*FileDevice)(nil)
)

// OpenFile opens (creating and sizing if needed) a file-backed device with
// nblocks blocks at path.
func OpenFile(path string, nblocks int64, profile LatencyProfile) (*FileDevice, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	info, err := f.Stat()
	if err == nil && info.Size() < nblocks*BlockSize {
		err = f.Truncate(nblocks * BlockSize)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	nblocks = max(nblocks, info.Size()/BlockSize) // an existing image keeps its size
	return &FileDevice{core: core{nblocks: nblocks, profile: profile, lastBn: -2}, f: f}, nil
}

// ReadBlock implements Device: the one-block ReadRun.
func (d *FileDevice) ReadBlock(bn int64, buf []byte) error { return oneBlock(d.ReadRun, bn, buf) }

// WriteBlock implements Device: the one-block WriteRun.
func (d *FileDevice) WriteBlock(bn int64, buf []byte) error { return oneBlock(d.WriteRun, bn, buf) }

// ReadRun implements RunReader: one host read (and one latency charge) for
// a contiguous run of blocks.
func (d *FileDevice) ReadRun(bn int64, buf []byte) error {
	return d.transfer(bn, buf, false, func() error {
		if _, err := d.f.ReadAt(buf, bn*BlockSize); err != nil {
			return fmt.Errorf("blockdev: file read: %w", err)
		}
		return nil
	})
}

// WriteRun implements RunReader: one host write (and one latency charge)
// for a contiguous run of blocks.
func (d *FileDevice) WriteRun(bn int64, buf []byte) error {
	return d.transfer(bn, buf, true, func() error {
		if _, err := d.f.WriteAt(buf, bn*BlockSize); err != nil {
			return fmt.Errorf("blockdev: file write: %w", err)
		}
		return nil
	})
}

// Flush implements Device (fsync).
func (d *FileDevice) Flush() error { return d.ifOpen(d.f.Sync) }

// Close implements Device.
func (d *FileDevice) Close() error { return d.close(d.f.Close) }

package main

import (
	"fmt"
	"time"

	"springfs/internal/unixapi"
)

// tally collects one goroutine's samples and op accounting. Each client
// owns one; they are merged after the goroutines have finished.
type tally struct {
	vals      map[string][]float64 // metric name → samples
	attempted int64
	failed    int64 // errored, short, or wrong bytes: all count as missing
	mismatch  int64 // of failed: bytes read that differ from the generator
	readBytes int64
	wroteByte int64
	firstErr  error
}

func newTally() *tally { return &tally{vals: make(map[string][]float64)} }

func (t *tally) add(metric string, v float64) { t.vals[metric] = append(t.vals[metric], v) }

// done accounts one attempted operation and reports whether it succeeded.
func (t *tally) done(what, path string, err error) bool {
	t.attempted++
	if err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = fmt.Errorf("%s %s: %w", what, path, err)
		}
		return false
	}
	return true
}

// bad marks the operation just accounted as failed after all: it returned
// a short count or bytes the generator did not write.
func (t *tally) bad(what, path string, got ...int64) {
	t.failed++
	t.mismatch++
	if t.firstErr == nil {
		t.firstErr = fmt.Errorf("%s %s: wrong result %v", what, path, got)
	}
}

func (t *tally) merge(o *tally) {
	for k, v := range o.vals {
		t.vals[k] = append(t.vals[k], v...)
	}
	t.attempted += o.attempted
	t.failed += o.failed
	t.mismatch += o.mismatch
	t.readBytes += o.readBytes
	t.wroteByte += o.wroteByte
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

// benchFile is one file the workload created: its path, the generator's
// copy of its content, and a descriptor kept open for the data phases.
type benchFile struct {
	path string
	sh   *shadow
	fd   int
}

// client is one closed-loop caller: it issues the next call only when the
// previous one has returned.
type client struct {
	*proc
	g   *gen
	t   *tally
	buf []byte // scratch for reads, 64 KiB
	// subdir is the directory the client's lifecycles made last.
	subdir string
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

func mbps(bytes int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / 1e6 / d.Seconds()
}

// sample runs n×batch calls of fn and records one latency sample per batch:
// the mean time inside the calls. fn returns the time it spent in the
// system under test, so checking results is not charged to it. batch is 1
// where a call takes milliseconds and hundreds where it takes microseconds
// and a lone sample would be mostly clock noise.
func (c *client) sample(metric string, n, batch int, fn func() time.Duration) {
	for i := 0; i < n; i++ {
		var d time.Duration
		for j := 0; j < batch; j++ {
			d += fn()
		}
		c.t.add(metric, us(d)/float64(batch))
	}
}

// openClose is one open+close of an existing file.
func (c *client) openClose(f *benchFile) time.Duration {
	t0 := time.Now()
	fd, err := c.Open(f.path, unixapi.O_RDONLY)
	if !c.t.done("open", f.path, err) {
		return time.Since(t0)
	}
	err = c.Close(fd)
	d := time.Since(t0)
	c.t.done("close", f.path, err)
	return d
}

// pread4k reads one seeded block and checks it against the generator.
func (c *client) pread4k(f *benchFile) time.Duration {
	return c.preadAt(f, c.g.blockOffset(int64(len(f.sh.data))))
}

// preadAt reads the block at off and checks it against the generator.
func (c *client) preadAt(f *benchFile, off int64) time.Duration {
	buf := c.buf[:blockSize]
	t0 := time.Now()
	n, err := c.Pread(f.fd, buf, off)
	d := time.Since(t0)
	if c.t.done("pread", f.path, err) {
		c.t.readBytes += int64(n)
		if n != blockSize || !f.sh.check(buf, off) {
			c.t.bad("pread", f.path, off, int64(n))
		}
	}
	return d
}

// pwrite4k overwrites one seeded block with fresh seeded bytes.
func (c *client) pwrite4k(f *benchFile) time.Duration {
	off := c.g.blockOffset(int64(len(f.sh.data)))
	blk := f.sh.at(off, blockSize)
	c.g.fill(blk[:64]) // new content, cheaply: the head of the block changes
	t0 := time.Now()
	n, err := c.Pwrite(f.fd, blk, off)
	d := time.Since(t0)
	if c.t.done("pwrite", f.path, err) {
		c.t.wroteByte += int64(n)
		if n != blockSize {
			c.t.bad("pwrite", f.path, off, int64(n))
		}
	}
	return d
}

// fstat stats an open file and checks the size.
func (c *client) fstat(f *benchFile) time.Duration {
	t0 := time.Now()
	st, err := c.Fstat(f.fd)
	d := time.Since(t0)
	if c.t.done("fstat", f.path, err) && st.Size != int64(len(f.sh.data)) {
		c.t.bad("fstat", f.path, st.Size)
	}
	return d
}

// statPath stats a file by path and checks the size.
func (c *client) statPath(f *benchFile) time.Duration {
	t0 := time.Now()
	st, err := c.Stat(f.path)
	d := time.Since(t0)
	if c.t.done("stat", f.path, err) && st.Size != int64(len(f.sh.data)) {
		c.t.bad("stat", f.path, st.Size)
	}
	return d
}

// fsync flushes an open file.
func (c *client) fsync(f *benchFile) time.Duration {
	t0 := time.Now()
	err := c.Fsync(f.fd)
	d := time.Since(t0)
	c.t.done("fsync", f.path, err)
	return d
}

// seqWrite rewrites the whole file front to back in chunk-sized calls with
// fresh seeded content, then fsyncs. One seq_write_MBps sample: user bytes
// over the time inside the calls, fsync included.
func (c *client) seqWrite(f *benchFile, chunk int64) {
	size := int64(len(f.sh.data))
	var d time.Duration
	for off := int64(0); off < size; off += chunk {
		n := min(chunk, size-off)
		p := f.sh.at(off, n)
		for b := int64(0); b < n; b += blockSize {
			c.g.fill(p[b : b+16])
		}
		t0 := time.Now()
		w, err := c.Pwrite(f.fd, p, off)
		d += time.Since(t0)
		if c.t.done("pwrite", f.path, err) {
			c.t.wroteByte += int64(w)
			if int64(w) != n {
				c.t.bad("pwrite", f.path, off, int64(w))
			}
		}
	}
	d += c.fsync(f)
	c.t.add("seq_write_MBps", mbps(size, d))
}

// seqRead reads the whole file front to back in chunk-sized calls and
// checks every byte. One seq_read_MBps sample.
func (c *client) seqRead(f *benchFile, chunk int64) {
	c.seqReadAll([]*benchFile{f}, chunk, 1)
}

// seqReadAll reads every file of the set front to back, passes times over,
// as one seq_read_MBps sample: small cached files would otherwise give
// samples of a microsecond.
func (c *client) seqReadAll(files []*benchFile, chunk int64, passes int) {
	var d time.Duration
	var total int64
	for i := 0; i < passes; i++ {
		for _, f := range files {
			d += c.readThrough(f, chunk)
			total += int64(len(f.sh.data))
		}
	}
	c.t.add("seq_read_MBps", mbps(total, d))
}

// coldReads reads f front to back passes times, dropping the part's caches
// before each pass, as one seq_read_MBps sample.
func (c *client) coldReads(p *part, f *benchFile, chunk int64, passes int) {
	var d time.Duration
	for i := 0; i < passes; i++ {
		p.drop(c)
		d += c.readThrough(f, chunk)
	}
	c.t.add("seq_read_MBps", mbps(int64(passes)*int64(len(f.sh.data)), d))
}

// readThrough reads f front to back, checks every byte, and returns the
// time inside the calls.
func (c *client) readThrough(f *benchFile, chunk int64) time.Duration {
	size := int64(len(f.sh.data))
	var d time.Duration
	for off := int64(0); off < size; off += chunk {
		n := min(chunk, size-off)
		buf := c.buf[:n]
		t0 := time.Now()
		r, err := c.Pread(f.fd, buf, off)
		d += time.Since(t0)
		if c.t.done("pread", f.path, err) {
			c.t.readBytes += int64(r)
			if int64(r) != n || !f.sh.check(buf, off) {
				c.t.bad("pread", f.path, off, int64(r))
			}
		}
	}
	return d
}

// lifecycles runs n file lifecycles in dir: creat → pwrite 2 KiB → fsync →
// close → stat → rename → unlink, with a mkdir (and an rmdir of the one
// before) every 32 files. serial is
// the client's running file number. Each lifecycle gives one
// create_fsync_p50_us sample (creat entered → fsync returned).
func (c *client) lifecycles(dir string, n int, serial *int) {
	payload := c.buf[:2048]
	for i := 0; i < n; i++ {
		*serial++
		if *serial%32 == 0 {
			// One subdirectory per client exists at a time, so a long
			// run cannot use up the inode table.
			if c.subdir != "" {
				c.t.done("rmdir", c.subdir, c.Unlink(c.subdir))
			}
			c.subdir = fmt.Sprintf("%s/%s", dir, c.g.name("d", *serial))
			c.t.done("mkdir", c.subdir, c.Mkdir(c.subdir))
		}
		path := fmt.Sprintf("%s/%s", dir, c.g.name("f", *serial))
		c.g.fill(payload[:64])
		t0 := time.Now()
		fd, err := c.Open(path, unixapi.O_WRONLY|unixapi.O_CREAT|unixapi.O_TRUNC)
		if !c.t.done("creat", path, err) {
			continue
		}
		w, err := c.Pwrite(fd, payload, 0)
		if c.t.done("pwrite", path, err) {
			c.t.wroteByte += int64(w)
		}
		err = c.Fsync(fd)
		c.t.add("create_fsync_p50_us", us(time.Since(t0)))
		c.t.done("fsync", path, err)
		c.t.done("close", path, c.Close(fd))
		st, err := c.Stat(path)
		if c.t.done("stat", path, err) && st.Size != int64(len(payload)) {
			c.t.bad("stat", path, st.Size)
		}
		moved := path + ".r"
		c.t.done("rename", path, c.Rename(path, moved))
		c.t.done("unlink", moved, c.Unlink(moved))
	}
}

// truncateCycle shrinks f to the middle of a block and re-extends it to its
// old size: the cut-off tail, including the rest of the boundary block,
// must read back as zeros. It reads the boundary block and the last block
// to check.
func (c *client) truncateCycle(f *benchFile) {
	size := int64(len(f.sh.data))
	cut := size/2 + blockSize/3
	c.t.done("ftruncate", f.path, c.Ftruncate(f.fd, cut))
	c.t.done("ftruncate", f.path, c.Ftruncate(f.fd, size))
	f.sh.truncate(cut)
	f.sh.truncate(size)
	c.preadAt(f, cut/blockSize*blockSize)
	c.preadAt(f, size-blockSize)
}

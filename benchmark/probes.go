package main

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"springfs/internal/blockdev"
	"springfs/internal/fsys"
	"springfs/internal/naming"
	"springfs/internal/unixapi"
	"springfs/internal/vm"
)

// The four probes below are the only instrumentation a traced run adds.
// They wrap public interfaces from outside the program: nothing under
// internal/ knows they exist, and an untraced run builds none of them.

// ---- P-top: unixapi.Process ----

// proc is a workload's handle on one unixapi.Process. With rec nil it
// forwards and nothing else; with rec set every call becomes a top span.
type proc struct {
	p   *unixapi.Process
	rec *recorder
}

func (c *proc) Open(path string, flags int) (int, error) {
	if c.rec == nil {
		return c.p.Open(path, flags)
	}
	t := time.Now()
	fd, err := c.p.Open(path, flags)
	c.rec.add(lvTop, opOpen, t)
	return fd, err
}

func (c *proc) Close(fd int) error {
	if c.rec == nil {
		return c.p.Close(fd)
	}
	t := time.Now()
	err := c.p.Close(fd)
	c.rec.add(lvTop, opClose, t)
	return err
}

func (c *proc) Pread(fd int, buf []byte, off int64) (int, error) {
	if c.rec == nil {
		return c.p.Pread(fd, buf, off)
	}
	t := time.Now()
	n, err := c.p.Pread(fd, buf, off)
	c.rec.add(lvTop, sized(len(buf), opPread, opPreadBulk), t)
	return n, err
}

func (c *proc) Pwrite(fd int, buf []byte, off int64) (int, error) {
	if c.rec == nil {
		return c.p.Pwrite(fd, buf, off)
	}
	t := time.Now()
	n, err := c.p.Pwrite(fd, buf, off)
	c.rec.add(lvTop, sized(len(buf), opPwrite, opPwriteBulk), t)
	return n, err
}

func (c *proc) Fstat(fd int) (unixapi.StatInfo, error) {
	if c.rec == nil {
		return c.p.Fstat(fd)
	}
	t := time.Now()
	st, err := c.p.Fstat(fd)
	c.rec.add(lvTop, opFstat, t)
	return st, err
}

func (c *proc) Stat(path string) (unixapi.StatInfo, error) {
	if c.rec == nil {
		return c.p.Stat(path)
	}
	t := time.Now()
	st, err := c.p.Stat(path)
	c.rec.add(lvTop, opStat, t)
	return st, err
}

func (c *proc) Fsync(fd int) error {
	if c.rec == nil {
		return c.p.Fsync(fd)
	}
	t := time.Now()
	err := c.p.Fsync(fd)
	c.rec.add(lvTop, opFsync, t)
	return err
}

func (c *proc) Ftruncate(fd int, length int64) error {
	if c.rec == nil {
		return c.p.Ftruncate(fd, length)
	}
	t := time.Now()
	err := c.p.Ftruncate(fd, length)
	c.rec.add(lvTop, opFtruncate, t)
	return err
}

func (c *proc) Rename(oldpath, newpath string) error {
	if c.rec == nil {
		return c.p.Rename(oldpath, newpath)
	}
	t := time.Now()
	err := c.p.Rename(oldpath, newpath)
	c.rec.add(lvTop, opRename, t)
	return err
}

func (c *proc) Unlink(path string) error {
	if c.rec == nil {
		return c.p.Unlink(path)
	}
	t := time.Now()
	err := c.p.Unlink(path)
	c.rec.add(lvTop, opUnlink, t)
	return err
}

func (c *proc) Mkdir(path string) error {
	if c.rec == nil {
		return c.p.Mkdir(path)
	}
	t := time.Now()
	err := c.p.Mkdir(path)
	c.rec.add(lvTop, opMkdir, t)
	return err
}

// sized tells the 4 KiB data calls, which have latency metrics of their
// own, from the bulk ones.
func sized(n int, small, bulk op) op {
	if n == blockSize {
		return small
	}
	return bulk
}

// ---- P-fs: the stack's top fsys.StackableFS and its files ----

// fsProbe sits directly under unixapi. It times every call into the stack
// and hands unixapi one fileProbe per underlying file, so identity by
// fsys.CanonicalKey (the append lock, handle counts) is what it would be
// without the probe.
type fsProbe struct {
	under fsys.StackableFS
	rec   *recorder

	mu    sync.Mutex
	files map[any]*fileProbe // by fsys.CanonicalKey of the underlying file
}

var _ fsys.StackableFS = (*fsProbe)(nil)

func newFSProbe(under fsys.StackableFS, rec *recorder) *fsProbe {
	return &fsProbe{under: under, rec: rec, files: make(map[any]*fileProbe)}
}

func (f *fsProbe) fileFor(lower fsys.File) *fileProbe {
	key := fsys.CanonicalKey(lower)
	f.mu.Lock()
	defer f.mu.Unlock()
	if p, ok := f.files[key]; ok {
		return p
	}
	p := &fileProbe{lower: lower, rec: f.rec}
	f.files[key] = p
	return p
}

func (f *fsProbe) wrap(obj naming.Object) naming.Object {
	if file, ok := obj.(fsys.File); ok {
		return f.fileFor(file)
	}
	return obj
}

func (f *fsProbe) FSName() string { return f.under.FSName() }

func (f *fsProbe) StackOn(under fsys.StackableFS) error { return fsys.ErrAlreadyStacked }

func (f *fsProbe) Create(name string, cred naming.Credentials) (fsys.File, error) {
	t := time.Now()
	file, err := f.under.Create(name, cred)
	f.rec.add(lvFS, opCreate, t)
	if err != nil {
		return nil, err
	}
	return f.fileFor(file), nil
}

func (f *fsProbe) Open(name string, cred naming.Credentials) (fsys.File, error) {
	t := time.Now()
	file, err := f.under.Open(name, cred)
	f.rec.add(lvFS, opOpen, t)
	if err != nil {
		return nil, err
	}
	return f.fileFor(file), nil
}

func (f *fsProbe) Remove(name string, cred naming.Credentials) error {
	t := time.Now()
	err := f.under.Remove(name, cred)
	f.rec.add(lvFS, opUnlink, t)
	return err
}

func (f *fsProbe) Rename(oldname, newname string, cred naming.Credentials) error {
	t := time.Now()
	err := f.under.Rename(oldname, newname, cred)
	f.rec.add(lvFS, opRename, t)
	return err
}

func (f *fsProbe) SyncFS() error { return f.under.SyncFS() }

func (f *fsProbe) Resolve(name string, cred naming.Credentials) (naming.Object, error) {
	t := time.Now()
	obj, err := f.under.Resolve(name, cred)
	f.rec.add(lvFS, opResolve, t)
	if err != nil {
		return nil, err
	}
	return f.wrap(obj), nil
}

func (f *fsProbe) Bind(name string, obj naming.Object, cred naming.Credentials) error {
	if p, ok := obj.(*fileProbe); ok {
		obj = p.lower
	}
	return f.under.Bind(name, obj, cred)
}

func (f *fsProbe) Unbind(name string, cred naming.Credentials) error {
	return f.under.Unbind(name, cred)
}

func (f *fsProbe) List(cred naming.Credentials) ([]naming.Binding, error) {
	return f.under.List(cred)
}

func (f *fsProbe) CreateContext(name string, cred naming.Credentials) (naming.Context, error) {
	t := time.Now()
	ctx, err := f.under.CreateContext(name, cred)
	f.rec.add(lvFS, opMkdir, t)
	return ctx, err
}

// fileProbe times the file operations. Bind is forwarded untouched: a
// mapping made through the probe talks to the real pager.
type fileProbe struct {
	lower fsys.File
	rec   *recorder
}

var (
	_ fsys.File       = (*fileProbe)(nil)
	_ fsys.Appender   = (*fileProbe)(nil)
	_ fsys.HandleFile = (*fileProbe)(nil)
)

func (p *fileProbe) Bind(caller vm.CacheManager, access vm.Rights, offset, length vm.Offset) (vm.CacheRights, error) {
	return p.lower.Bind(caller, access, offset, length)
}

func (p *fileProbe) GetLength() (vm.Offset, error) {
	t := time.Now()
	l, err := p.lower.GetLength()
	p.rec.add(lvFS, opGetLength, t)
	return l, err
}

func (p *fileProbe) SetLength(length vm.Offset) error {
	t := time.Now()
	err := p.lower.SetLength(length)
	p.rec.add(lvFS, opFtruncate, t)
	return err
}

func (p *fileProbe) ReadAt(b []byte, off int64) (int, error) {
	t := time.Now()
	n, err := p.lower.ReadAt(b, off)
	p.rec.add(lvFS, sized(len(b), opPread, opPreadBulk), t)
	return n, err
}

func (p *fileProbe) WriteAt(b []byte, off int64) (int, error) {
	t := time.Now()
	n, err := p.lower.WriteAt(b, off)
	p.rec.add(lvFS, sized(len(b), opPwrite, opPwriteBulk), t)
	return n, err
}

func (p *fileProbe) Stat() (fsys.Attributes, error) {
	t := time.Now()
	a, err := p.lower.Stat()
	p.rec.add(lvFS, opStat, t)
	return a, err
}

func (p *fileProbe) Sync() error {
	t := time.Now()
	err := p.lower.Sync()
	p.rec.add(lvFS, opFsync, t)
	return err
}

func (p *fileProbe) Append(b []byte) (int64, int, error) {
	t := time.Now()
	off, n, err := fsys.Append(p.lower, b)
	p.rec.add(lvFS, sized(len(b), opPwrite, opPwriteBulk), t)
	return off, n, err
}

func (p *fileProbe) Retain() {
	t := time.Now()
	fsys.Retain(p.lower)
	p.rec.add(lvFS, opRetain, t)
}

func (p *fileProbe) Release() error {
	t := time.Now()
	err := fsys.Release(p.lower)
	p.rec.add(lvFS, opRelease, t)
	return err
}

// ---- P-dev: blockdev.Device ----

// devCounts are the device-side counts a traced run reports.
type devCounts struct {
	ReadIOs, WriteIOs       atomic.Int64 // calls
	ReadBlocks, WriteBlocks atomic.Int64
	Flushes                 atomic.Int64
}

// devProbe times and counts every device call.
type devProbe struct {
	dev blockdev.Device
	rec *recorder
	n   *devCounts
}

// runDevProbe adds the contiguous-run calls. disklayer narrows its device
// to blockdev.RunReader to cluster I/O; a probe that hid the interface
// would change the program it measures.
type runDevProbe struct {
	devProbe
	run blockdev.RunReader
}

// probeDevice wraps dev, keeping RunReader exactly when dev has it.
func probeDevice(dev blockdev.Device, rec *recorder, n *devCounts) blockdev.Device {
	p := devProbe{dev: dev, rec: rec, n: n}
	if run, ok := dev.(blockdev.RunReader); ok {
		return &runDevProbe{devProbe: p, run: run}
	}
	return &p
}

func (d *devProbe) ReadBlock(bn int64, buf []byte) error {
	t := time.Now()
	err := d.dev.ReadBlock(bn, buf)
	d.rec.add(lvDev, opDevRead, t)
	d.n.ReadIOs.Add(1)
	d.n.ReadBlocks.Add(1)
	return err
}

func (d *devProbe) WriteBlock(bn int64, buf []byte) error {
	t := time.Now()
	err := d.dev.WriteBlock(bn, buf)
	d.rec.add(lvDev, opDevWrite, t)
	d.n.WriteIOs.Add(1)
	d.n.WriteBlocks.Add(1)
	return err
}

func (d *devProbe) NumBlocks() int64 { return d.dev.NumBlocks() }

func (d *devProbe) Flush() error {
	t := time.Now()
	err := d.dev.Flush()
	d.rec.add(lvDev, opDevFlush, t)
	d.n.Flushes.Add(1)
	return err
}

func (d *devProbe) Close() error { return d.dev.Close() }

func (d *runDevProbe) ReadRun(bn int64, buf []byte) error {
	t := time.Now()
	err := d.run.ReadRun(bn, buf)
	d.rec.add(lvDev, opDevRead, t)
	d.n.ReadIOs.Add(1)
	d.n.ReadBlocks.Add(int64(len(buf) / blockdev.BlockSize))
	return err
}

func (d *runDevProbe) WriteRun(bn int64, buf []byte) error {
	t := time.Now()
	err := d.run.WriteRun(bn, buf)
	d.rec.add(lvDev, opDevWrite, t)
	d.n.WriteIOs.Add(1)
	d.n.WriteBlocks.Add(int64(len(buf) / blockdev.BlockSize))
	return err
}

// ---- P-net: net.Conn / net.Listener around netsim ----

// flights is the FIFO of messages written into one direction of a
// connection and not yet read out of it. netsim delivers whole Writes in
// order, so the k-th message read is the k-th written.
type flights struct {
	mu   sync.Mutex
	sent []flight
}

type flight struct {
	at     time.Time
	unread int
	seen   bool
}

func (f *flights) wrote(n int) {
	f.mu.Lock()
	f.sent = append(f.sent, flight{at: time.Now(), unread: n})
	f.mu.Unlock()
}

// read consumes n received bytes and records a span for every message
// whose first byte they contain: from its Write to this Read.
func (f *flights) read(n int, rec *recorder, o op) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for n > 0 && len(f.sent) > 0 {
		h := &f.sent[0]
		if !h.seen {
			h.seen = true
			rec.add(lvNet, o, h.at)
		}
		if n < h.unread {
			h.unread -= n
			return
		}
		n -= h.unread
		f.sent = f.sent[1:]
	}
}

// netProbe pairs the two ends of each connection by the client's address,
// which netsim makes unique per Dial.
type netProbe struct {
	rec *recorder

	mu    sync.Mutex
	links map[string]*netLink
}

type netLink struct{ toServer, toClient flights }

func newNetProbe(rec *recorder) *netProbe {
	return &netProbe{rec: rec, links: make(map[string]*netLink)}
}

func (n *netProbe) link(clientAddr string) *netLink {
	n.mu.Lock()
	defer n.mu.Unlock()
	l, ok := n.links[clientAddr]
	if !ok {
		l = &netLink{}
		n.links[clientAddr] = l
	}
	return l
}

// client wraps the dialing end of a connection.
func (n *netProbe) client(c net.Conn) net.Conn {
	l := n.link(c.LocalAddr().String())
	return &connProbe{Conn: c, rec: n.rec, out: &l.toServer, in: &l.toClient, inOp: opNetToClient}
}

// listener wraps a listener so accepted connections are probed too.
func (n *netProbe) listener(l net.Listener) net.Listener {
	return &listenerProbe{Listener: l, probe: n}
}

type listenerProbe struct {
	net.Listener
	probe *netProbe
}

func (l *listenerProbe) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	k := l.probe.link(c.RemoteAddr().String())
	return &connProbe{Conn: c, rec: l.probe.rec, out: &k.toClient, in: &k.toServer, inOp: opNetToServer}, nil
}

type connProbe struct {
	net.Conn
	rec     *recorder
	out, in *flights
	inOp    op
}

func (c *connProbe) Write(p []byte) (int, error) {
	c.out.wrote(len(p))
	return c.Conn.Write(p)
}

func (c *connProbe) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.in.read(n, c.rec, c.inOp)
	}
	return n, err
}

package fsys

import (
	"errors"
	"io"
	"sync"
	"testing"
	"time"

	"springfs/internal/naming"
	"springfs/internal/spring"
	"springfs/internal/vm"
)

// TestFigure8InterfaceHierarchy is the compile-time reproduction of the
// interface hierarchy: stackable_fs inherits from fs and naming_context.
func TestFigure8InterfaceHierarchy(t *testing.T) {
	var sfs StackableFS
	var _ FS = sfs
	var _ naming.Context = sfs
	// fs_pager and fs_cache are subtypes of pager and cache objects, so
	// they can be passed wherever the base types are expected.
	var fp FsPagerObject
	var _ vm.PagerObject = fp
	var fc FsCacheObject
	var _ vm.CacheObject = fc
}

func TestAttrCache(t *testing.T) {
	var ac AttrCache
	if _, ok := ac.Get(); ok {
		t.Error("zero-value cache reports valid")
	}
	attrs := Attributes{Length: 10, AccessTime: time.Unix(1, 0), ModifyTime: time.Unix(2, 0)}
	ac.Set(attrs)
	got, ok := ac.Get()
	if !ok || got != attrs {
		t.Errorf("Get = %+v, %v", got, ok)
	}
	if ac.Dirty() {
		t.Error("Set marked the cache dirty")
	}
	// Flush of clean attributes reports not-dirty and invalidates.
	if _, dirty := ac.Flush(); dirty {
		t.Error("flush of clean cache reported dirty")
	}
	if _, ok := ac.Get(); ok {
		t.Error("cache valid after flush")
	}
	// Update marks dirty; Flush returns it.
	ac.Update(attrs)
	if !ac.Dirty() {
		t.Error("Update did not mark dirty")
	}
	got, dirty := ac.Flush()
	if !dirty || got != attrs {
		t.Errorf("Flush = %+v, %v", got, dirty)
	}
	// Mutate on invalid cache is a no-op.
	if ac.Mutate(func(a *Attributes) { a.Length = 99 }) {
		t.Error("Mutate succeeded on invalid cache")
	}
	ac.Set(attrs)
	if !ac.Mutate(func(a *Attributes) { a.Length = 99 }) {
		t.Error("Mutate failed on valid cache")
	}
	if got, _ := ac.Get(); got.Length != 99 {
		t.Errorf("after Mutate length = %d", got.Length)
	}
	if !ac.Dirty() {
		t.Error("Mutate did not mark dirty")
	}
	ac.Invalidate()
	if _, ok := ac.Get(); ok {
		t.Error("cache valid after Invalidate")
	}
}

// fakeManager is a minimal cache manager for connection-table tests.
type fakeManager struct {
	name   string
	domain *spring.Domain

	mu     sync.Mutex
	nConns int
	pagers []vm.PagerObject
}

func (m *fakeManager) ManagerName() string           { return m.name }
func (m *fakeManager) ManagerDomain() *spring.Domain { return m.domain }
func (m *fakeManager) LastPager() vm.PagerObject {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.pagers) == 0 {
		return nil
	}
	return m.pagers[len(m.pagers)-1]
}

type fakeRights struct{ id uint64 }

func (r fakeRights) RightsID() uint64    { return r.id }
func (r fakeRights) ManagerName() string { return "fake" }

func (m *fakeManager) NewConnection(pager vm.PagerObject) (vm.CacheObject, vm.CacheRights) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.nConns++
	m.pagers = append(m.pagers, pager)
	return &fakeFsCache{}, fakeRights{id: uint64(m.nConns)}
}

// fakeFsCache is an fs_cache so narrow checks can be exercised.
type fakeFsCache struct {
	vm.NopCache
	AttrCache
}

func (c *fakeFsCache) FlushAttributes() (Attributes, bool) {
	return c.Flush()
}
func (c *fakeFsCache) PopulateAttributes(attrs Attributes) { c.Set(attrs) }
func (c *fakeFsCache) InvalidateAttributes()               { c.Invalidate() }

// fakeFsPager is a trivial fs_pager used to verify subtype-preserving
// wrapping.
type fakeFsPager struct {
	attached *Connection
}

func (p *fakeFsPager) PageIn(offset, size vm.Offset, access vm.Rights) ([]byte, error) {
	return make([]byte, size), nil
}
func (p *fakeFsPager) PageOut(offset, size vm.Offset, data []byte) error  { return nil }
func (p *fakeFsPager) WriteOut(offset, size vm.Offset, data []byte) error { return nil }
func (p *fakeFsPager) Sync(offset, size vm.Offset, data []byte) error     { return nil }
func (p *fakeFsPager) DoneWithPagerObject()                               {}
func (p *fakeFsPager) GetAttributes() (Attributes, error)                 { return Attributes{}, nil }
func (p *fakeFsPager) SetAttributes(Attributes) error                     { return nil }
func (p *fakeFsPager) AttachConnection(c *Connection)                     { p.attached = c }

func TestConnectionTableBindReuse(t *testing.T) {
	node := spring.NewNode("n")
	defer node.Stop()
	pagerDomain := spring.NewDomain(node, "pager")
	mgrDomain := spring.NewDomain(node, "mgr")
	table := NewConnectionTable(pagerDomain)
	mgr := &fakeManager{name: "mgr", domain: mgrDomain}

	mkCount := 0
	mk := func() vm.PagerObject {
		mkCount++
		return &fakeFsPager{}
	}
	r1, c1, isNew1 := table.Bind(mgr, 7, mk)
	if !isNew1 {
		t.Error("first bind not new")
	}
	r2, c2, isNew2 := table.Bind(mgr, 7, mk)
	if isNew2 {
		t.Error("second bind created a new connection")
	}
	if r1 != r2 || c1 != c2 {
		t.Error("rebind returned different rights/connection")
	}
	if mkCount != 1 {
		t.Errorf("pager constructed %d times, want 1", mkCount)
	}
	// Different backing: new connection.
	_, c3, isNew3 := table.Bind(mgr, 8, mk)
	if !isNew3 || c3 == c1 {
		t.Error("different backing reused connection")
	}
	if table.Len() != 2 {
		t.Errorf("table has %d connections, want 2", table.Len())
	}
	if got := table.ConnectionsFor(7); len(got) != 1 || got[0] != c1 {
		t.Errorf("ConnectionsFor(7) = %v", got)
	}
	if rm := table.Remove(mgr, 7); rm != c1 {
		t.Error("Remove returned wrong connection")
	}
	if table.Len() != 1 {
		t.Errorf("table has %d connections after remove", table.Len())
	}
}

// TestConnectionTableIsIndexedByBacking: per-file queries see exactly that
// file's connections however many other files are bound, removing a file's
// last connection leaves nothing behind, and Len still counts connections.
func TestConnectionTableIsIndexedByBacking(t *testing.T) {
	node := spring.NewNode("n")
	defer node.Stop()
	d := spring.NewDomain(node, "d")
	table := NewConnectionTable(d)
	a, b := &fakeManager{name: "a", domain: d}, &fakeManager{name: "b", domain: d}
	mk := func() vm.PagerObject { return &fakeFsPager{} }
	const files = 1000
	for backing := uint64(1); backing <= files; backing++ {
		table.Bind(a, backing, mk)
	}
	_, shared, _ := table.Bind(b, 500, mk)
	if table.Len() != files+1 {
		t.Fatalf("Len = %d, want %d", table.Len(), files+1)
	}
	if got := table.ConnectionsFor(500); len(got) != 2 || got[1] != shared {
		t.Errorf("ConnectionsFor(500) = %d connections, want a's then b's", len(got))
	}
	if got := table.ConnectionsFor(501); len(got) != 1 || got[0].Manager != a {
		t.Errorf("ConnectionsFor(501) = %v", got)
	}
	if !table.HasFsCache(500) || table.HasFsCache(files+1) {
		t.Error("HasFsCache does not follow the backing")
	}
	// The returned slice is the caller's: removing does not disturb it.
	held := table.ConnectionsFor(500)
	if table.Remove(a, 500) == nil || table.Remove(a, 500) != nil {
		t.Error("Remove did not return the connection exactly once")
	}
	if held[0].Manager != a || held[1] != shared {
		t.Error("Remove changed a slice ConnectionsFor had handed out")
	}
	if got := table.ConnectionsFor(500); len(got) != 1 || got[0] != shared {
		t.Errorf("after removing a: ConnectionsFor(500) = %v", got)
	}
	table.Remove(b, 500)
	if got := table.ConnectionsFor(500); len(got) != 0 || table.HasFsCache(500) || table.Len() != files-1 {
		t.Errorf("after removing both: %d connections for 500, Len %d", len(got), table.Len())
	}
	if _, _, isNew := table.Bind(a, 500, mk); !isNew {
		t.Error("bind after remove reused a connection")
	}
}

func TestConnectionTableNarrowsAndAttaches(t *testing.T) {
	node := spring.NewNode("n")
	defer node.Stop()
	pagerDomain := spring.NewDomain(node, "pager")
	mgrDomain := spring.NewDomain(node, "mgr")
	table := NewConnectionTable(pagerDomain)
	mgr := &fakeManager{name: "mgr", domain: mgrDomain}
	raw := &fakeFsPager{}
	_, conn, _ := table.Bind(mgr, 1, func() vm.PagerObject { return raw })
	// The manager's cache narrowed to fs_cache.
	if conn.FsCache == nil {
		t.Error("fs_cache manager not narrowed")
	}
	// The pager was attached to its connection before bind returned.
	if raw.attached != conn {
		t.Error("pager not attached to its connection")
	}
	// The pager handed to the manager preserves the fs_pager subtype
	// across the cross-domain wrap.
	got := mgr.LastPager()
	if _, ok := spring.Narrow[FsPagerObject](got); !ok {
		t.Errorf("manager received %T which does not narrow to fs_pager", got)
	}
	if _, ok := got.(*FsPagerProxy); !ok {
		t.Errorf("cross-domain pager is %T, want *FsPagerProxy", got)
	}
}

func TestWrapCollapsesSameDomain(t *testing.T) {
	node := spring.NewNode("n")
	defer node.Stop()
	d := spring.NewDomain(node, "d")
	ch := spring.Connect(d, d)
	p := &fakeFsPager{}
	if WrapPager(ch, p) != vm.PagerObject(p) {
		t.Error("same-domain pager wrap did not collapse")
	}
	c := &fakeFsCache{}
	if WrapCache(ch, c) != vm.CacheObject(c) {
		t.Error("same-domain cache wrap did not collapse")
	}
}

func TestCreatorRegistry(t *testing.T) {
	root := naming.NewContext()
	creator := CreatorFunc(func(config map[string]string) (StackableFS, error) {
		return nil, errors.New("not implemented")
	})
	if err := RegisterCreator(root, "test_creator", creator, naming.Root); err != nil {
		t.Fatal(err)
	}
	got, err := LookupCreator(root, "test_creator", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := got.CreateFS(nil); err == nil {
		t.Error("expected the sentinel error")
	}
	// Second registration in the same context works (context exists).
	if err := RegisterCreator(root, "another", creator, naming.Root); err != nil {
		t.Fatal(err)
	}
	// Unknown creator.
	if _, err := LookupCreator(root, "missing", naming.Root); err == nil {
		t.Error("lookup of unknown creator succeeded")
	}
	// Non-creator binding.
	if err := root.Bind(CreatorsContextName+"/fake", 42, naming.Root); err != nil {
		t.Fatal(err)
	}
	if _, err := LookupCreator(root, "fake", naming.Root); err == nil {
		t.Error("lookup of non-creator succeeded")
	}
}

func TestAsFile(t *testing.T) {
	if _, err := AsFile(naming.NewContext()); !errors.Is(err, ErrIsDirectory) {
		t.Errorf("AsFile(context) error = %v, want ErrIsDirectory", err)
	}
	if _, err := AsFile(42); !errors.Is(err, ErrNotFile) {
		t.Errorf("AsFile(int) error = %v, want ErrNotFile", err)
	}
}

// mappedIOPager backs MappedIO tests: memory object + pager over a byte
// map, mirroring how layers use MappedIO.
type mappedIOPager struct {
	mu     sync.Mutex
	store  map[int64][]byte
	length int64
	domain *spring.Domain
	conns  map[vm.CacheManager]vm.CacheRights
}

func newMappedIOPager(domain *spring.Domain) *mappedIOPager {
	return &mappedIOPager{store: map[int64][]byte{}, domain: domain, conns: map[vm.CacheManager]vm.CacheRights{}}
}

func (p *mappedIOPager) Bind(caller vm.CacheManager, access vm.Rights, offset, length vm.Offset) (vm.CacheRights, error) {
	p.mu.Lock()
	if r, ok := p.conns[caller]; ok {
		p.mu.Unlock()
		return r, nil
	}
	p.mu.Unlock()
	_, rights := caller.NewConnection(p)
	p.mu.Lock()
	p.conns[caller] = rights
	p.mu.Unlock()
	return rights, nil
}

func (p *mappedIOPager) GetLength() (vm.Offset, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.length, nil
}

func (p *mappedIOPager) SetLength(l vm.Offset) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.length = l
	return nil
}

func (p *mappedIOPager) PageIn(offset, size vm.Offset, access vm.Rights) ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]byte, size)
	for pn := offset / vm.PageSize; pn*vm.PageSize < offset+size; pn++ {
		if pg, ok := p.store[pn]; ok {
			copy(out[pn*vm.PageSize-offset:], pg)
		}
	}
	return out, nil
}

func (p *mappedIOPager) PageOut(offset, size vm.Offset, data []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := int64(0); i < size; i += vm.PageSize {
		pg := make([]byte, vm.PageSize)
		copy(pg, data[i:])
		p.store[(offset+i)/vm.PageSize] = pg
	}
	return nil
}

func (p *mappedIOPager) WriteOut(offset, size vm.Offset, data []byte) error {
	return p.PageOut(offset, size, data)
}
func (p *mappedIOPager) Sync(offset, size vm.Offset, data []byte) error {
	return p.PageOut(offset, size, data)
}
func (p *mappedIOPager) DoneWithPagerObject() {}

func TestMappedIOReadWriteEOF(t *testing.T) {
	node := spring.NewNode("n")
	defer node.Stop()
	vmm := vm.New(spring.NewDomain(node, "vmm"), "vmm")
	mobj := newMappedIOPager(spring.NewDomain(node, "pager"))
	mio := NewMappedIO(vmm, mobj)

	// Write extends the length.
	if _, err := mio.WriteAt([]byte("hello"), 100); err != nil {
		t.Fatal(err)
	}
	if l, _ := mobj.GetLength(); l != 105 {
		t.Errorf("length = %d, want 105", l)
	}
	// Read inside.
	buf := make([]byte, 5)
	if n, err := mio.ReadAt(buf, 100); n != 5 || err != nil {
		t.Errorf("ReadAt = %d, %v", n, err)
	}
	if string(buf) != "hello" {
		t.Errorf("data = %q", buf)
	}
	// Read at EOF.
	if n, err := mio.ReadAt(buf, 105); n != 0 || err != io.EOF {
		t.Errorf("read at EOF = %d, %v", n, err)
	}
	// Read crossing EOF.
	if n, err := mio.ReadAt(make([]byte, 10), 102); n != 3 || err != io.EOF {
		t.Errorf("read crossing EOF = %d, %v", n, err)
	}
	// Negative offset.
	if _, err := mio.ReadAt(buf, -1); err == nil {
		t.Error("negative-offset read succeeded")
	}
	if _, err := mio.WriteAt(buf, -1); err == nil {
		t.Error("negative-offset write succeeded")
	}
	// Sync pushes to the pager.
	if err := mio.Sync(); err != nil {
		t.Fatal(err)
	}
	mobj.mu.Lock()
	pg := mobj.store[100/vm.PageSize*0] // page 0
	mobj.mu.Unlock()
	if pg == nil || string(pg[100:105]) != "hello" {
		t.Error("Sync did not reach the pager")
	}
}

package fsys

import (
	"io"
	"sync"
	"testing"

	"springfs/internal/naming"
	"springfs/internal/spring"
	"springfs/internal/vm"
)

// memFS is a minimal in-memory StackableFS used to exercise the proxies.
type memFS struct {
	name string
	mu   sync.Mutex
	ctx  *naming.BasicContext
}

func newMemFS(name string) *memFS {
	return &memFS{name: name, ctx: naming.NewContext()}
}

func (m *memFS) FSName() string { return m.name }

func (m *memFS) Create(name string, cred naming.Credentials) (File, error) {
	f := &memFile{}
	if err := m.ctx.Bind(name, f, cred); err != nil {
		return nil, err
	}
	return f, nil
}

func (m *memFS) Open(name string, cred naming.Credentials) (File, error) {
	obj, err := m.ctx.Resolve(name, cred)
	if err != nil {
		return nil, err
	}
	return AsFile(obj)
}

func (m *memFS) Remove(name string, cred naming.Credentials) error {
	return m.ctx.Unbind(name, cred)
}

func (m *memFS) Rename(oldname, newname string, cred naming.Credentials) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	obj, err := m.ctx.Resolve(oldname, cred)
	if err != nil || oldname == newname {
		return err
	}
	_ = m.ctx.Unbind(newname, cred)
	if err := m.ctx.Bind(newname, obj, cred); err != nil {
		return err
	}
	return m.ctx.Unbind(oldname, cred)
}

func (m *memFS) SyncFS() error { return nil }

func (m *memFS) StackOn(under StackableFS) error { return ErrAlreadyStacked }

func (m *memFS) Resolve(name string, cred naming.Credentials) (naming.Object, error) {
	return m.ctx.Resolve(name, cred)
}
func (m *memFS) Bind(name string, obj naming.Object, cred naming.Credentials) error {
	return m.ctx.Bind(name, obj, cred)
}
func (m *memFS) Unbind(name string, cred naming.Credentials) error {
	return m.ctx.Unbind(name, cred)
}
func (m *memFS) List(cred naming.Credentials) ([]naming.Binding, error) {
	return m.ctx.List(cred)
}
func (m *memFS) CreateContext(name string, cred naming.Credentials) (naming.Context, error) {
	return m.ctx.CreateContext(name, cred)
}

// memFile is a trivial file for proxy tests.
type memFile struct {
	mu   sync.Mutex
	data []byte
}

func (f *memFile) Bind(caller vm.CacheManager, access vm.Rights, offset, length vm.Offset) (vm.CacheRights, error) {
	return nil, nil
}
func (f *memFile) GetLength() (vm.Offset, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return int64(len(f.data)), nil
}
func (f *memFile) SetLength(l vm.Offset) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if int(l) <= len(f.data) {
		f.data = f.data[:l]
	} else {
		f.data = append(f.data, make([]byte, int(l)-len(f.data))...)
	}
	return nil
}
func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if off >= int64(len(f.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}
func (f *memFile) WriteAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if need := int(off) + len(p); need > len(f.data) {
		f.data = append(f.data, make([]byte, need-len(f.data))...)
	}
	return copy(f.data[off:], p), nil
}
func (f *memFile) Stat() (Attributes, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return Attributes{Length: int64(len(f.data))}, nil
}
func (f *memFile) Sync() error { return nil }

func (f *memFile) WrapForChannel(ch *spring.Channel) naming.Object {
	return NewFileProxy(ch, f)
}

func TestStackableFSProxyCrossDomain(t *testing.T) {
	node := spring.NewNode("n")
	defer node.Stop()
	server := spring.NewDomain(node, "server")
	client := spring.NewDomain(node, "client")
	impl := newMemFS("mem")
	ch := spring.Connect(client, server)
	proxy := WrapStackable(ch, impl)

	if proxy.FSName() != "mem" {
		t.Errorf("FSName = %q", proxy.FSName())
	}
	// Create crosses domains and returns a FileProxy.
	f, err := proxy.Create("file", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := f.(*FileProxy); !ok {
		t.Errorf("Create returned %T, want *FileProxy", f)
	}
	if server.Invocations.Value() == 0 {
		t.Error("Create did not cross domains")
	}
	// File ops through the proxy work end to end.
	if _, err := f.WriteAt([]byte("proxied"), 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 7)
	if _, err := f.ReadAt(got, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if string(got) != "proxied" {
		t.Errorf("read = %q", got)
	}
	attrs, err := f.Stat()
	if err != nil || attrs.Length != 7 {
		t.Errorf("Stat = %+v, %v", attrs, err)
	}
	if err := f.SetLength(3); err != nil {
		t.Fatal(err)
	}
	if l, _ := f.GetLength(); l != 3 {
		t.Errorf("length = %d", l)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}

	// Open through the proxy also wraps.
	f2, err := proxy.Open("file", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := f2.(*FileProxy); !ok {
		t.Errorf("Open returned %T", f2)
	}
	// Canonical identity survives double wrapping.
	if CanonicalKey(f) != CanonicalKey(f2) {
		t.Error("two proxies of one file have different canonical keys")
	}

	// Context half: Resolve wraps; List wraps; CreateContext proxies.
	obj, err := proxy.Resolve("file", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := obj.(*FileProxy); !ok {
		t.Errorf("Resolve returned %T", obj)
	}
	bindings, err := proxy.List(naming.Root)
	if err != nil || len(bindings) != 1 {
		t.Fatalf("List = %v, %v", bindings, err)
	}
	if _, ok := bindings[0].Object.(*FileProxy); !ok {
		t.Errorf("listed object is %T", bindings[0].Object)
	}
	sub, err := proxy.CreateContext("dir", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sub.(*naming.ContextProxy); !ok {
		t.Errorf("CreateContext returned %T", sub)
	}
	// Bind/Unbind/Remove/SyncFS/StackOn pass through.
	if err := proxy.Bind("x", 42, naming.Root); err != nil {
		t.Fatal(err)
	}
	if err := proxy.Unbind("x", naming.Root); err != nil {
		t.Fatal(err)
	}
	if err := proxy.Remove("file", naming.Root); err != nil {
		t.Fatal(err)
	}
	if err := proxy.SyncFS(); err != nil {
		t.Fatal(err)
	}
	if err := proxy.StackOn(impl); err != ErrAlreadyStacked {
		t.Errorf("StackOn error = %v", err)
	}
	// WrapForChannel re-targets the implementation, not the proxy.
	rewrapped := proxy.(*StackableFSProxy).WrapForChannel(ch)
	if rewrapped.(*StackableFSProxy).Unwrap() != StackableFS(impl) {
		t.Error("re-wrap did not target the implementation")
	}
}

func TestCanonicalKeyUnwrapsNestedProxies(t *testing.T) {
	node := spring.NewNode("n")
	defer node.Stop()
	a := spring.NewDomain(node, "a")
	b := spring.NewDomain(node, "b")
	c := spring.NewDomain(node, "c")
	f := &memFile{}
	p1 := NewFileProxy(spring.Connect(b, a), f)
	p2 := NewFileProxy(spring.Connect(c, b), p1)
	if CanonicalKey(p2) != File(f) {
		t.Error("nested proxies do not canonicalise to the implementation")
	}
	if CanonicalKey(f) != File(f) {
		t.Error("bare file does not canonicalise to itself")
	}
}

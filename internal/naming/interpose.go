package naming

import (
	"sync"
)

// InterposedContext implements name-resolution-time interposition (Section
// 5 of the paper). To interpose on one or more files, an interposer
// resolves the context where the files are bound, rebinds the context name
// to an InterposedContext of its own, and from then on receives every
// naming operation through that context. The interposer can selectively
// intercept some resolutions while passing the rest to the original
// context.
type InterposedContext struct {
	original Context

	mu        sync.RWMutex
	intercept map[string]func(original Object) (Object, error)
}

var _ Context = (*InterposedContext)(nil)

// NewInterposedContext wraps original. Without any registered interceptors
// the wrapper is transparent.
func NewInterposedContext(original Context) *InterposedContext {
	return &InterposedContext{
		original:  original,
		intercept: make(map[string]func(Object) (Object, error)),
	}
}

// Intercept registers fn to transform the object that single-component
// name resolves to. fn receives the object from the original context (nil
// if resolution failed there) and returns the object to hand to the client
// — typically an interposer-implemented file that forwards selected
// operations to the original (Section 5).
func (ic *InterposedContext) Intercept(name string, fn func(original Object) (Object, error)) {
	ic.mu.Lock()
	defer ic.mu.Unlock()
	ic.intercept[name] = fn
}

// Resolve implements Context, applying interceptors on the last component.
func (ic *InterposedContext) Resolve(name string, cred Credentials) (Object, error) {
	parts, err := SplitName(name)
	if err != nil {
		return nil, err
	}
	if len(parts) > 1 {
		return ResolveIn(ic, name, cred)
	}
	ic.mu.RLock()
	fn := ic.intercept[parts[0]]
	ic.mu.RUnlock()
	obj, rerr := ic.original.Resolve(parts[0], cred)
	if fn != nil {
		return fn(obj)
	}
	return obj, rerr
}

// Bind implements Context, forwarding to the original.
func (ic *InterposedContext) Bind(name string, obj Object, cred Credentials) error {
	return ic.original.Bind(name, obj, cred)
}

// Unbind implements Context, forwarding to the original.
func (ic *InterposedContext) Unbind(name string, cred Credentials) error {
	return ic.original.Unbind(name, cred)
}

// List implements Context, forwarding to the original.
func (ic *InterposedContext) List(cred Credentials) ([]Binding, error) {
	return ic.original.List(cred)
}

// CreateContext implements Context, forwarding to the original.
func (ic *InterposedContext) CreateContext(name string, cred Credentials) (Context, error) {
	return ic.original.CreateContext(name, cred)
}

// InterposeOn replaces the binding of ctxName inside parent with an
// InterposedContext wrapping the original context, returning the wrapper.
// The caller must hold admin rights on parent (the paper: "the interposer
// has to be appropriately authenticated to manipulate the name space").
func InterposeOn(parent *BasicContext, ctxName string, cred Credentials) (*InterposedContext, error) {
	obj, err := parent.Resolve(ctxName, cred)
	if err != nil {
		return nil, err
	}
	orig, ok := obj.(Context)
	if !ok {
		return nil, ErrNotContext
	}
	ic := NewInterposedContext(orig)
	if _, err := parent.Rebind(ctxName, ic, cred); err != nil {
		return nil, err
	}
	return ic, nil
}

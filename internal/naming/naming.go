// Package naming implements the Spring naming service as used by the
// extensible file system architecture (Section 3.2 of the paper, based on
// "The Spring Name Service", Radia et al., SMLI TR 93-16).
//
// Any object can be associated with any name; a name-to-object association
// is a binding; a context is an object containing a set of bindings. A
// context is itself an object, so it can be bound into other contexts,
// giving rise to a naming graph. Two properties matter to the file system
// architecture:
//
//   - Any domain may implement a naming context and, if appropriately
//     authenticated, bind it into any other context. Stackable file systems
//     are naming contexts (Figure 8), so composing a stack ends with binding
//     the new layer's context somewhere in the name space.
//
//   - Each domain has a per-domain name space: part of it is shared between
//     all domains and part can be customised. DomainNamespace implements
//     this as a private overlay over a shared root.
//
// Contexts carry access control lists; manipulating the name space (for
// example to interpose on a context, Section 5 of the paper) requires the
// caller to be authenticated for admin rights on the context.
package naming

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Object is anything that can be bound to a name.
type Object = any

// Errors returned by naming operations.
var (
	// ErrNotFound is returned when a name has no binding.
	ErrNotFound = errors.New("naming: name not found")
	// ErrExists is returned when binding a name that is already bound.
	ErrExists = errors.New("naming: name already bound")
	// ErrNotContext is returned when an intermediate component of a
	// compound name does not resolve to a context.
	ErrNotContext = errors.New("naming: not a context")
	// ErrPermission is returned when the credentials do not authorise the
	// operation under the context's ACL.
	ErrPermission = errors.New("naming: permission denied")
	// ErrBadName is returned for empty or malformed names.
	ErrBadName = errors.New("naming: bad name")
)

// Rights is a bitmask of operations a principal may perform on a context.
type Rights uint8

// Access rights on a context.
const (
	// RightResolve allows Resolve and List.
	RightResolve Rights = 1 << iota
	// RightBind allows Bind and Unbind.
	RightBind
	// RightAdmin allows ACL changes and context interposition.
	RightAdmin

	// RightsAll grants everything.
	RightsAll = RightResolve | RightBind | RightAdmin
)

// Credentials identify the principal performing an operation.
type Credentials struct {
	// Principal is the authenticated identity, e.g. "root" or "fs/dfs".
	Principal string
}

// Root is the all-powerful principal used by system configuration code.
var Root = Credentials{Principal: "root"}

// Anonymous is the unauthenticated principal.
var Anonymous = Credentials{}

// ACL is an access control list: principal -> rights. The empty ACL grants
// RightsAll to everybody (open context), matching the paper's default of
// administrative decisions being opt-in.
type ACL struct {
	mu      sync.RWMutex
	entries map[string]Rights
}

// NewACL builds an ACL from entries; a nil map yields an open ACL.
func NewACL(entries map[string]Rights) *ACL {
	acl := &ACL{}
	if len(entries) > 0 {
		acl.entries = make(map[string]Rights, len(entries))
		for p, r := range entries {
			acl.entries[p] = r
		}
	}
	return acl
}

// Check reports whether cred holds all rights in want. The root principal
// always passes.
func (a *ACL) Check(cred Credentials, want Rights) bool {
	if cred.Principal == Root.Principal {
		return true
	}
	a.mu.RLock()
	defer a.mu.RUnlock()
	if a.entries == nil {
		return true
	}
	return a.entries[cred.Principal]&want == want
}

// Grant sets the rights of principal.
func (a *ACL) Grant(principal string, r Rights) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.entries == nil {
		a.entries = make(map[string]Rights)
	}
	a.entries[principal] = r
}

// Binding is one name-to-object association.
type Binding struct {
	Name   string
	Object Object
}

// Context is the Spring naming context interface. Compound names use '/' as
// the component separator; resolution proceeds component-wise, narrowing
// intermediate objects to Context.
type Context interface {
	// Resolve returns the object bound to name.
	Resolve(name string, cred Credentials) (Object, error)
	// Bind associates name with obj. It fails with ErrExists if the last
	// component is already bound.
	Bind(name string, obj Object, cred Credentials) error
	// Unbind removes the binding for name.
	Unbind(name string, cred Credentials) error
	// List returns the bindings in this context, sorted by name.
	List(cred Credentials) ([]Binding, error)
	// CreateContext creates a fresh subcontext bound at name.
	CreateContext(name string, cred Credentials) (Context, error)
}

// SplitName splits a compound name into components, rejecting empty names
// and empty components.
func SplitName(name string) ([]string, error) {
	name = strings.Trim(name, "/")
	if name == "" {
		return nil, ErrBadName
	}
	parts := strings.Split(name, "/")
	for _, p := range parts {
		if p == "" {
			return nil, ErrBadName
		}
	}
	return parts, nil
}

// ResolveIn performs component-wise resolution of a compound name starting
// at ctx. It exists so that Context implementations can share the
// multi-component walk while implementing only single-component operations.
func ResolveIn(ctx Context, name string, cred Credentials) (Object, error) {
	parts, err := SplitName(name)
	if err != nil {
		return nil, err
	}
	var obj Object = ctx
	for i, p := range parts {
		c, ok := obj.(Context)
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrNotContext, strings.Join(parts[:i], "/"))
		}
		obj, err = c.Resolve(p, cred)
		if err != nil {
			return nil, fmt.Errorf("resolving %q: %w", strings.Join(parts[:i+1], "/"), err)
		}
	}
	return obj, nil
}

// ContextAt returns the context path names below root — root itself for
// the empty path — letting root resolve the whole path in one call.
func ContextAt(root Context, path string, cred Credentials) (Context, error) {
	if path == "" {
		return root, nil
	}
	obj, err := root.Resolve(path, cred)
	if err != nil {
		return nil, err
	}
	ctx, ok := obj.(Context)
	if !ok {
		return nil, ErrNotContext
	}
	return ctx, nil
}

// resolvePrefix walks all but the last component of name from ctx,
// returning the final context and the last component.
func resolvePrefix(ctx Context, name string, cred Credentials) (Context, string, error) {
	parts, err := SplitName(name)
	if err != nil {
		return nil, "", err
	}
	if len(parts) == 1 {
		return ctx, parts[0], nil
	}
	obj, err := ResolveIn(ctx, strings.Join(parts[:len(parts)-1], "/"), cred)
	if err != nil {
		return nil, "", err
	}
	c, ok := obj.(Context)
	if !ok {
		return nil, "", ErrNotContext
	}
	return c, parts[len(parts)-1], nil
}

// BasicContext is the standard in-memory context implementation.
type BasicContext struct {
	mu       sync.RWMutex
	bindings map[string]Object
	acl      *ACL
}

var _ Context = (*BasicContext)(nil)

// NewContext creates an empty open context.
func NewContext() *BasicContext {
	return &BasicContext{bindings: make(map[string]Object), acl: NewACL(nil)}
}

// NewContextACL creates an empty context guarded by acl.
func NewContextACL(acl *ACL) *BasicContext {
	return &BasicContext{bindings: make(map[string]Object), acl: acl}
}

// ACL returns the context's access control list.
func (c *BasicContext) ACL() *ACL { return c.acl }

// Resolve implements Context.
func (c *BasicContext) Resolve(name string, cred Credentials) (Object, error) {
	parts, err := SplitName(name)
	if err != nil {
		return nil, err
	}
	if len(parts) > 1 {
		return ResolveIn(c, name, cred)
	}
	if !c.acl.Check(cred, RightResolve) {
		return nil, ErrPermission
	}
	c.mu.RLock()
	obj, ok := c.bindings[parts[0]]
	c.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, parts[0])
	}
	return obj, nil
}

// Bind implements Context.
func (c *BasicContext) Bind(name string, obj Object, cred Credentials) error {
	target, last, err := resolvePrefix(c, name, cred)
	if err != nil {
		return err
	}
	if target != Context(c) {
		return target.Bind(last, obj, cred)
	}
	if !c.acl.Check(cred, RightBind) {
		return ErrPermission
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.bindings[last]; ok {
		return fmt.Errorf("%w: %q", ErrExists, last)
	}
	c.bindings[last] = obj
	return nil
}

// Rebind atomically replaces the binding for a single-component name,
// returning the previous object. It is the primitive that context
// interposition uses: unbind the original context and bind the interposer
// in its place in one step.
func (c *BasicContext) Rebind(name string, obj Object, cred Credentials) (Object, error) {
	parts, err := SplitName(name)
	if err != nil {
		return nil, err
	}
	if len(parts) != 1 {
		return nil, fmt.Errorf("%w: Rebind takes a single component", ErrBadName)
	}
	if !c.acl.Check(cred, RightAdmin) {
		return nil, ErrPermission
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	old, ok := c.bindings[parts[0]]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, parts[0])
	}
	c.bindings[parts[0]] = obj
	return old, nil
}

// Unbind implements Context.
func (c *BasicContext) Unbind(name string, cred Credentials) error {
	target, last, err := resolvePrefix(c, name, cred)
	if err != nil {
		return err
	}
	if target != Context(c) {
		return target.Unbind(last, cred)
	}
	if !c.acl.Check(cred, RightBind) {
		return ErrPermission
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.bindings[last]; !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, last)
	}
	delete(c.bindings, last)
	return nil
}

// List implements Context.
func (c *BasicContext) List(cred Credentials) ([]Binding, error) {
	if !c.acl.Check(cred, RightResolve) {
		return nil, ErrPermission
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]Binding, 0, len(c.bindings))
	for name, obj := range c.bindings {
		out = append(out, Binding{Name: name, Object: obj})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// CreateContext implements Context.
func (c *BasicContext) CreateContext(name string, cred Credentials) (Context, error) {
	sub := NewContext()
	if err := c.Bind(name, sub, cred); err != nil {
		return nil, err
	}
	return sub, nil
}

// DomainNamespace is a per-domain name space: resolutions consult the
// domain's private bindings first and fall back to the shared root, so all
// domains have part of their name space in common but can customise it.
type DomainNamespace struct {
	private *BasicContext
	shared  Context
}

var _ Context = (*DomainNamespace)(nil)

// NewDomainNamespace creates a namespace overlaying shared.
func NewDomainNamespace(shared Context) *DomainNamespace {
	return &DomainNamespace{private: NewContext(), shared: shared}
}

// Resolve implements Context: private bindings shadow shared ones.
func (d *DomainNamespace) Resolve(name string, cred Credentials) (Object, error) {
	parts, err := SplitName(name)
	if err != nil {
		return nil, err
	}
	// Only the first component can be shadowed privately; deeper
	// resolution happens inside whatever context the component names.
	obj, perr := d.private.Resolve(parts[0], cred)
	if perr != nil {
		obj, err = d.shared.Resolve(parts[0], cred)
		if err != nil {
			return nil, err
		}
	}
	if len(parts) == 1 {
		return obj, nil
	}
	c, ok := obj.(Context)
	if !ok {
		return nil, ErrNotContext
	}
	return ResolveIn(c, strings.Join(parts[1:], "/"), cred)
}

// Bind implements Context; bindings go to the private overlay.
func (d *DomainNamespace) Bind(name string, obj Object, cred Credentials) error {
	parts, err := SplitName(name)
	if err != nil {
		return err
	}
	if len(parts) == 1 {
		return d.private.Bind(name, obj, cred)
	}
	first, err := d.Resolve(parts[0], cred)
	if err != nil {
		return err
	}
	c, ok := first.(Context)
	if !ok {
		return ErrNotContext
	}
	return c.Bind(strings.Join(parts[1:], "/"), obj, cred)
}

// Unbind implements Context; only private bindings can be removed.
func (d *DomainNamespace) Unbind(name string, cred Credentials) error {
	return d.private.Unbind(name, cred)
}

// List implements Context, merging shared and private bindings with private
// ones shadowing shared ones of the same name.
func (d *DomainNamespace) List(cred Credentials) ([]Binding, error) {
	priv, err := d.private.List(cred)
	if err != nil {
		return nil, err
	}
	shared, err := d.shared.List(cred)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool, len(priv))
	out := append([]Binding(nil), priv...)
	for _, b := range priv {
		seen[b.Name] = true
	}
	for _, b := range shared {
		if !seen[b.Name] {
			out = append(out, b)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// CreateContext implements Context; the subcontext lands in the private
// overlay.
func (d *DomainNamespace) CreateContext(name string, cred Credentials) (Context, error) {
	return d.private.CreateContext(name, cred)
}

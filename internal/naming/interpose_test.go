package naming

import (
	"errors"
	"testing"

	"springfs/internal/spring"
)

func TestInterposedContextTransparent(t *testing.T) {
	orig := NewContext()
	if err := orig.Bind("f", "original", Root); err != nil {
		t.Fatal(err)
	}
	ic := NewInterposedContext(orig)
	obj, err := ic.Resolve("f", Root)
	if err != nil || obj != "original" {
		t.Errorf("transparent resolve = %v, %v", obj, err)
	}
	if err := ic.Bind("g", 2, Root); err != nil {
		t.Fatal(err)
	}
	if obj, _ := orig.Resolve("g", Root); obj != 2 {
		t.Errorf("bind did not pass through: %v", obj)
	}
}

func TestInterposedContextIntercept(t *testing.T) {
	orig := NewContext()
	if err := orig.Bind("watched", "original", Root); err != nil {
		t.Fatal(err)
	}
	if err := orig.Bind("plain", "plain-obj", Root); err != nil {
		t.Fatal(err)
	}
	ic := NewInterposedContext(orig)
	ic.Intercept("watched", func(original Object) (Object, error) {
		return "interposed(" + original.(string) + ")", nil
	})

	obj, err := ic.Resolve("watched", Root)
	if err != nil {
		t.Fatal(err)
	}
	if obj != "interposed(original)" {
		t.Errorf("intercepted resolve = %v", obj)
	}
	// Non-intercepted names pass through untouched.
	if obj, _ := ic.Resolve("plain", Root); obj != "plain-obj" {
		t.Errorf("plain resolve = %v", obj)
	}
}

func TestInterposeOnRebindsInPlace(t *testing.T) {
	parent := NewContext()
	dir := NewContext()
	if err := parent.Bind("dir", dir, Root); err != nil {
		t.Fatal(err)
	}
	if err := dir.Bind("file", "before", Root); err != nil {
		t.Fatal(err)
	}

	ic, err := InterposeOn(parent, "dir", Root)
	if err != nil {
		t.Fatalf("InterposeOn: %v", err)
	}
	ic.Intercept("file", func(original Object) (Object, error) {
		return "watched:" + original.(string), nil
	})

	// Clients resolving through the parent now hit the interposer.
	obj, err := parent.Resolve("dir/file", Root)
	if err != nil {
		t.Fatal(err)
	}
	if obj != "watched:before" {
		t.Errorf("resolve through parent = %v", obj)
	}
}

func TestInterposeOnRequiresAdmin(t *testing.T) {
	acl := NewACL(map[string]Rights{"user": RightResolve | RightBind})
	parent := NewContextACL(acl)
	dir := NewContext()
	if err := parent.Bind("dir", dir, Root); err != nil {
		t.Fatal(err)
	}
	if _, err := InterposeOn(parent, "dir", Credentials{Principal: "user"}); !errors.Is(err, ErrPermission) {
		t.Errorf("InterposeOn without admin error = %v, want ErrPermission", err)
	}
}

func TestInterposeOnNonContext(t *testing.T) {
	parent := NewContext()
	if err := parent.Bind("leaf", 42, Root); err != nil {
		t.Fatal(err)
	}
	if _, err := InterposeOn(parent, "leaf", Root); !errors.Is(err, ErrNotContext) {
		t.Errorf("error = %v, want ErrNotContext", err)
	}
}

func TestContextProxySameDomainCollapses(t *testing.T) {
	node := spring.NewNode("n")
	defer node.Stop()
	d := spring.NewDomain(node, "d")
	backing := NewContext()
	p := NewContextProxy(spring.Connect(d, d), backing)
	if p != Context(backing) {
		t.Error("same-domain proxy should collapse to the implementation")
	}
}

func TestContextProxyCrossDomain(t *testing.T) {
	node := spring.NewNode("n")
	defer node.Stop()
	client := spring.NewDomain(node, "client")
	server := spring.NewDomain(node, "server")
	backing := NewContext()
	if err := backing.Bind("x", 9, Root); err != nil {
		t.Fatal(err)
	}
	ch := spring.Connect(client, server)
	p := NewContextProxy(ch, backing)
	obj, err := p.Resolve("x", Root)
	if err != nil || obj != 9 {
		t.Errorf("proxy resolve = %v, %v", obj, err)
	}
	if server.Invocations.Value() == 0 {
		t.Error("proxy resolve did not cross domains")
	}
	if err := p.Bind("y", 1, Root); err != nil {
		t.Fatal(err)
	}
	bindings, err := p.List(Root)
	if err != nil || len(bindings) != 2 {
		t.Errorf("List = %v, %v", bindings, err)
	}
	if err := p.Unbind("y", Root); err != nil {
		t.Fatal(err)
	}
	if _, err := p.CreateContext("sub", Root); err != nil {
		t.Fatal(err)
	}
}

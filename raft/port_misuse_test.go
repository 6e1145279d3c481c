package raft

import (
	"strings"
	"testing"
)

// mustPanic asserts fn panics with a message containing want. API-misuse
// panics carry error values (wrapping the raft sentinel errors) so that
// recover-based supervision can classify them; plain string panics are also
// accepted.
func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected panic containing %q", want)
		}
		var msg string
		switch v := r.(type) {
		case string:
			msg = v
		case error:
			msg = v.Error()
		default:
			t.Fatalf("panic value %v (%T), want string or error", r, r)
		}
		if !strings.Contains(msg, want) {
			t.Fatalf("panic %q does not mention %q", msg, want)
		}
	}()
	fn()
}

func TestPortAccessBeforeExePanics(t *testing.T) {
	k := newSum()
	mustPanic(t, "before Map.Exe", func() { _, _ = Pop[int64](k.In("input_a")) })
}

func TestUnknownPortPanics(t *testing.T) {
	k := newSum()
	mustPanic(t, "no input port", func() { k.In("nope") })
	mustPanic(t, "no output port", func() { k.Out("nope") })
}

func TestDuplicatePortPanics(t *testing.T) {
	k := newSum()
	mustPanic(t, "twice", func() { AddInput[int64](k, "input_a") })
}

func TestWrongElementTypePanics(t *testing.T) {
	// Run a tiny app where the kernel intentionally uses the wrong type
	// parameter; the resulting panic is surfaced by Exe as an error that
	// names the port and the bad type.
	m := NewMap()
	bad := NewLambdaIO[int64, int64](1, 1, func(k *LambdaKernel) Status {
		_, _ = Pop[string](k.In("0")) // wrong T
		return Stop
	})
	sink := newCollect()
	if _, err := m.Link(newGen(5), bad); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Link(bad, sink); err != nil {
		t.Fatal(err)
	}
	_, err := m.Exe()
	if err == nil || !strings.Contains(err.Error(), "accessed with element type") {
		t.Fatalf("err = %v", err)
	}
}

func TestPortIntrospection(t *testing.T) {
	k := newSum()
	p := k.In("input_a")
	if p.Name() != "input_a" || p.Dir() != In || p.Type().Kind().String() != "int64" {
		t.Fatalf("port introspection: %s %s %s", p.Name(), p.Dir(), p.Type())
	}
	if p.Bound() {
		t.Fatal("unlinked port reports bound")
	}
	if got := k.Out("sum").Dir(); got != Out {
		t.Fatalf("dir = %v", got)
	}
	if In.String() != "in" || Out.String() != "out" {
		t.Fatal("direction strings")
	}
	if len(k.InNames()) != 2 || len(k.OutNames()) != 1 {
		t.Fatal("port name lists")
	}
	if s := p.String(); !strings.Contains(s, "input_a") {
		t.Fatalf("port string = %q", s)
	}
}

func TestSendAsyncOnUnboundPortPanics(t *testing.T) {
	k := newSum()
	mustPanic(t, "SendAsync on unbound port", func() { k.Out("sum").SendAsync(SigUser) })
}

func TestSplitMergeWidthValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewSplit(0) must panic")
		}
	}()
	NewSplit[int](0, RoundRobin)
}

func TestMergeWidthValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewMerge(0) must panic")
		}
	}()
	NewMerge[int](0)
}

func TestSplitPolicyString(t *testing.T) {
	if RoundRobin.String() != "round-robin" || LeastUtilized.String() != "least-utilized" {
		t.Fatal("policy strings")
	}
}

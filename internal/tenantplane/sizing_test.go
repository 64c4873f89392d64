package tenantplane

import (
	"testing"

	"hierdet/internal/livenet"
	"hierdet/internal/tree"
)

// TestPlaneSizing pins where a plane tenant's sizing comes from: pool sizes
// and the mailbox bound are plane-level (Config) only, because every
// tenant's shards are drained by the plane's one shared pool. A bare plane
// falls through to livenet's defaults, and standalone clusters keep their
// per-cluster knobs.
func TestPlaneSizing(t *testing.T) {
	plane, err := NewMultiplexer(Config{Workers: 3, MailboxBound: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer plane.Close()
	h, err := plane.RegisterPredicate("sized", Spec{Topology: tree.Chain(2)})
	if err != nil {
		t.Fatal(err)
	}
	if !h.Cluster().Shared() {
		t.Fatal("plane tenant is not on the shared substrate")
	}
	if got := h.Cluster().Workers(); got != 3 {
		t.Errorf("tenant on a Workers=3 plane: Workers() = %d, want 3", got)
	}
	if got := h.Cluster().MailboxBound(); got != 128 {
		t.Errorf("tenant on a MailboxBound=128 plane: MailboxBound() = %d, want 128", got)
	}

	bare, err := NewMultiplexer(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	def, err := bare.RegisterPredicate("def", Spec{Topology: tree.Chain(2)})
	if err != nil {
		t.Fatal(err)
	}
	if got := def.Cluster().MailboxBound(); got != 4096 {
		t.Errorf("tenant on a bare plane: MailboxBound() = %d, want livenet default 4096", got)
	}

	solo := livenet.New(livenet.Config{Topology: tree.Chain(2), Workers: 2, MailboxBound: 77})
	defer solo.Close()
	if solo.Shared() {
		t.Fatal("standalone cluster reports a shared substrate")
	}
	if got := solo.Workers(); got != 2 {
		t.Errorf("standalone Workers() = %d, want 2", got)
	}
	if got := solo.MailboxBound(); got != 77 {
		t.Errorf("standalone MailboxBound() = %d, want 77", got)
	}
}

// TestRegisterRejectsNegativeMaxDelay: a negative delay bound is a
// registration error, not a worker panic on the tenant's first report, and
// the rejected tenant id stays free.
func TestRegisterRejectsNegativeMaxDelay(t *testing.T) {
	plane, err := NewMultiplexer(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer plane.Close()
	if _, err := plane.RegisterPredicate("neg", Spec{Topology: tree.Chain(2), MaxDelay: -1}); err == nil {
		t.Fatal("RegisterPredicate with negative MaxDelay succeeded")
	}
	if _, err := plane.RegisterPredicate("neg", Spec{Topology: tree.Chain(2)}); err != nil {
		t.Fatalf("valid registration under the same id after a rejection: %v", err)
	}
}

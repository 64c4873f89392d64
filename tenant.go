package hierdet

import (
	"time"

	"hierdet/internal/tenantplane"
)

// tenant.go — the public face of the multi-tenant detection plane. A
// TenantMultiplexer turns one process fleet into a detection service:
// RegisterPredicate instantiates an independent detection tree per tenant
// over one shared Transport (frames are tenant-tagged on the wire and
// demultiplexed on arrival), and an active/active fleet of monitors spreads
// tenant ownership over TenantBuckets lease buckets so any fleet member can
// own any tenant and a dead member's tenants are re-owned within one lease
// TTL. A single-predicate deployment keeps using NewLiveCluster; the
// multiplexer is the same runtime multiplied.

// TenantMultiplexer multiplexes many registered predicates — one detection
// tree each — over one shared node fleet and transport.
type TenantMultiplexer = tenantplane.Multiplexer

// TenantConfig parameterizes NewTenantMultiplexer: the shared transport and
// hosted nodes, the plane-level event sink, and this process's membership in
// the monitor fleet.
type TenantConfig = tenantplane.Config

// TenantSpec describes one predicate registration: the tenant's spanning
// tree plus per-cluster runtime tuning (zero values inherit the live
// cluster's defaults).
type TenantSpec = tenantplane.Spec

// TenantHandle is one registered tenant: feed it intervals with Observe,
// inspect its cluster, and Close it to unregister, then read its
// detections with Detections.
type TenantHandle = tenantplane.Handle

// LeaseTable is a monitor fleet's shared ownership state: TTL'd liveness
// records and per-bucket leases, valid exactly while the holder's record is
// current.
type LeaseTable = tenantplane.LeaseTable

// FleetMonitor is one member of the active/active monitor fleet, renewing
// its liveness record and rebalancing bucket leases toward the fleet's fair
// share.
type FleetMonitor = tenantplane.Monitor

// TenantBuckets is the fixed size of the tenant-ownership ring.
const TenantBuckets = tenantplane.BucketCount

// NewTenantMultiplexer builds the plane, starts its shared transport, and —
// when TenantConfig.Monitor is set — joins the monitor fleet.
func NewTenantMultiplexer(cfg TenantConfig) (*TenantMultiplexer, error) {
	return tenantplane.NewMultiplexer(cfg)
}

// NewLeaseTable builds a fleet lease table whose liveness records last ttl.
func NewLeaseTable(ttl time.Duration) *LeaseTable {
	return tenantplane.NewLeaseTable(ttl, nil)
}

// TenantBucket maps a tenant id onto its ownership bucket.
func TenantBucket(tenantID string) int {
	return tenantplane.BucketOf(tenantID)
}

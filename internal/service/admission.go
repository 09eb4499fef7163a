package service

import (
	"context"
	"fmt"
	"time"

	"github.com/moara/moara/internal/core"
)

// tenantKey is the context key carrying the requesting tenant's name.
type tenantKey struct{}

// WithTenant tags ctx with the tenant the request is billed to. Absent
// a tag, requests share the default ("") tenant's bucket.
func WithTenant(ctx context.Context, tenant string) context.Context {
	return context.WithValue(ctx, tenantKey{}, tenant)
}

// TenantOf extracts the tenant tag ("" when untagged).
func TenantOf(ctx context.Context) string {
	t, _ := ctx.Value(tenantKey{}).(string)
	return t
}

// bucket is one tenant's token bucket, refilled lazily on the service
// clock — with the simulated cluster's virtual clock plugged in, every
// admission decision is a pure function of the request schedule, so
// sheds are deterministic under a seed.
type bucket struct {
	tokens float64
	last   time.Duration
}

// admit charges one request against the caller's tenant bucket,
// shedding with ErrOverload when the bucket is dry. Rate 0 admits
// everything.
func (s *Service) admit(ctx context.Context) error {
	if s.opts.Rate <= 0 {
		return nil
	}
	tenant := TenantOf(ctx)
	now := s.now()
	s.mu.Lock()
	defer s.mu.Unlock()
	burst := max(s.opts.Rate, 1)
	b, ok := s.tenants[tenant]
	if !ok {
		b = &bucket{tokens: burst, last: now}
		s.tenants[tenant] = b
	} else {
		b.tokens = min(b.tokens+s.opts.Rate*(now-b.last).Seconds(), burst)
		b.last = now
	}
	if b.tokens < 1 {
		s.stats.Shed++
		return fmt.Errorf("%w: tenant %q rate limit (%g/s)", core.ErrOverload, tenant, s.opts.Rate)
	}
	b.tokens--
	return nil
}

package simnet

import (
	"math"
	"math/rand"
	"time"

	"github.com/moara/moara/internal/ids"
)

// Fixed returns a latency model with a constant one-way delay.
func Fixed(d time.Duration) LatencyModel { return fixedModel(d) }

type fixedModel time.Duration

func (m fixedModel) Latency(_, _ ids.ID, _ time.Duration, _ *rand.Rand) time.Duration {
	return time.Duration(m)
}

// MinLatency reports the constant delay as its own lower bound.
func (m fixedModel) MinLatency() time.Duration { return time.Duration(m) }

// Uniform returns a model drawing one-way delays uniformly from
// [min, max).
func Uniform(min, max time.Duration) LatencyModel {
	return &uniformModel{min: min, max: max}
}

type uniformModel struct {
	min, max time.Duration
}

func (m *uniformModel) Latency(_, _ ids.ID, _ time.Duration, rng *rand.Rand) time.Duration {
	if m.max <= m.min {
		return m.min
	}
	return m.min + time.Duration(rng.Int63n(int64(m.max-m.min)))
}

// MinLatency reports the lower edge of the draw interval.
func (m *uniformModel) MinLatency() time.Duration { return m.min }

// LANConfig is the empty argument of LAN: the local-network model has
// no settings.
type LANConfig struct{}

// The Emulab-style local-network model: a switched 100 Mbps LAN where
// the one-way wire delay is lanBase plus a uniform draw below lanJitter.
const (
	lanBase   = 100 * time.Microsecond
	lanJitter = 400 * time.Microsecond
)

// LAN builds the local-network latency model used for the Emulab
// experiments (Figs. 12–13).
func LAN(LANConfig) LatencyModel { return lanModel{} }

type lanModel struct{}

func (lanModel) Latency(_, _ ids.ID, _ time.Duration, rng *rand.Rand) time.Duration {
	return lanBase + time.Duration(rng.Int63n(int64(lanJitter)))
}

// MinLatency reports the base wire delay (jitter only adds).
func (lanModel) MinLatency() time.Duration { return lanBase }

// The PlanetLab-style wide-area model. Each unordered node pair gets a
// stable base RTT drawn from a lognormal body; additionally a fraction
// of NODES are stragglers (overloaded or badly connected hosts) that add
// a heavy-tailed delay to every path touching them. Slow nodes — rather
// than slow pairs — are what make group-scoped querying beat centralized
// aggregation in the paper's Figs. 14-16: a group query only pays for
// stragglers in (or near) the group.
const (
	// wanMedianRTT is the median pairwise round-trip time, and wanSigma
	// the lognormal shape parameter.
	wanMedianRTT = 120 * time.Millisecond
	wanSigma     = 0.6
	// stragglerFrac is the fraction of straggler nodes.
	stragglerFrac = 0.04
	// A straggler's extra RTT is Pareto: at least stragglerScale, tail
	// index stragglerAlpha (smaller means heavier), at most stragglerCap.
	stragglerScale = 800 * time.Millisecond
	stragglerAlpha = 1.1
	stragglerCap   = 30 * time.Second
	// stragglerDuty is the fraction of stragglerWindow-sized time slots
	// in which a straggler is actually slow: PlanetLab stragglers are
	// intermittently overloaded, not constantly.
	stragglerDuty   = 0.3
	stragglerWindow = 30 * time.Second
	// wanJitterFrac adds per-message uniform jitter of ±wanJitterFrac
	// of the base one-way latency.
	wanJitterFrac = 0.1
)

// WAN builds the wide-area latency model; seed makes the pairwise bases
// and the stragglers reproducible.
func WAN(seed int64) *WANModel { return &WANModel{seed: uint64(seed)} }

// WANModel implements LatencyModel with stable per-pair RTTs, so offline
// analyses (Fig. 16's bottleneck-link study) can interrogate BaseRTT.
type WANModel struct {
	seed uint64
}

var _ LatencyModel = (*WANModel)(nil)

// pairKey builds an order-independent 64-bit key for a node pair.
func pairKey(a, b ids.ID) uint64 {
	ka, kb := a.Seed(), b.Seed()
	if ka > kb {
		ka, kb = kb, ka
	}
	return mix(ka, kb)
}

// StragglerDelay returns the extra RTT the node would add to paths
// through it during a slow window (zero for healthy nodes; the peak
// value regardless of when).
func (m *WANModel) StragglerDelay(a ids.ID) time.Duration {
	rng := splitmix{key: a.Seed() ^ 0x5bf03635 ^ m.seed}
	if rng.float() >= stragglerFrac {
		return 0
	}
	u := max(rng.float(), 1e-6)
	mult := math.Pow(u, -1.0/stragglerAlpha)
	d := time.Duration(float64(stragglerScale) * mult)
	if d > stragglerCap {
		d = stragglerCap
	}
	return d
}

// stragglerAt returns the node's extra RTT at time now, applying the
// duty cycle: a straggler is slow only during a deterministic fraction
// of its stragglerWindow-sized time slots.
func (m *WANModel) stragglerAt(a ids.ID, now time.Duration) time.Duration {
	d := m.StragglerDelay(a)
	if d == 0 {
		return 0
	}
	window := uint64(now / stragglerWindow)
	h := mix(a.Seed()^m.seed, window)
	if float64(h%1000)/1000 < stragglerDuty {
		return d
	}
	return 0
}

// BaseRTT returns the stable fair-weather round-trip time assigned to
// the pair (the lognormal body, no straggler penalties).
func (m *WANModel) BaseRTT(a, b ids.ID) time.Duration {
	if a == b {
		return 0
	}
	rng := splitmix{key: pairKey(a, b) ^ m.seed}
	rtt := float64(wanMedianRTT) * math.Exp(wanSigma*rng.norm())
	if rtt < float64(2*time.Millisecond) {
		rtt = float64(2 * time.Millisecond)
	}
	return time.Duration(rtt)
}

// RTTAt returns the pair's round-trip time at time now, including any
// active straggler penalties on either endpoint.
func (m *WANModel) RTTAt(a, b ids.ID, now time.Duration) time.Duration {
	if a == b {
		return 0
	}
	return m.BaseRTT(a, b) + m.stragglerAt(a, now) + m.stragglerAt(b, now)
}

// Latency returns one half of the pair's current RTT plus per-message
// jitter.
func (m *WANModel) Latency(from, to ids.ID, now time.Duration, rng *rand.Rand) time.Duration {
	oneWay := m.RTTAt(from, to, now) / 2
	if oneWay <= 0 {
		return 0
	}
	jit := int64(float64(oneWay) * wanJitterFrac)
	if jit <= 0 {
		return oneWay
	}
	return oneWay - time.Duration(jit/2) + time.Duration(rng.Int63n(jit))
}

// MinLatency reports a conservative one-way floor: half the 2ms RTT
// clamp, less the largest possible downward jitter excursion.
func (m *WANModel) MinLatency() time.Duration {
	floor := float64(time.Millisecond)
	return time.Duration(floor * (1 - wanJitterFrac/2))
}

// mix is the splitmix64 finalizer over a ^ b·φ, the package's one hash:
// WAN pair keys, straggler duty cycles and every splitmix stream derive
// from it.
func mix(a, b uint64) uint64 {
	x := a ^ b*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// splitmix is a 16-byte counter-based rand.Source64: draw i of the
// stream keyed k is mix(k, i). A node's latency stream is one, in place
// of math/rand's 4.9 KB source, and the WAN model draws its per-pair
// and per-node values from one on the stack.
type splitmix struct{ key, ctr uint64 }

func (s *splitmix) Uint64() uint64 {
	s.ctr++
	return mix(s.key, s.ctr)
}

func (s *splitmix) Int63() int64 { return int64(s.Uint64() >> 1) }

func (s *splitmix) Seed(seed int64) { *s = splitmix{key: uint64(seed)} }

// float returns a uniform draw from [0, 1).
func (s *splitmix) float() float64 { return float64(s.Uint64()>>11) / (1 << 53) }

// norm returns a standard normal draw (Box–Muller).
func (s *splitmix) norm() float64 {
	return math.Sqrt(-2*math.Log(1-s.float())) * math.Cos(2*math.Pi*s.float())
}

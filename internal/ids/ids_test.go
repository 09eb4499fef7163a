package ids

import (
	"hash/fnv"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestSeedIsFNV1a: Seed is 64-bit FNV-1a over the 16 identifier bytes.
// The simulator's per-node streams and the oracle's routing slots are
// keyed by it, so a different hash would move every seeded transcript.
func TestSeedIsFNV1a(t *testing.T) {
	for _, id := range []ID{Zero, FromKey("a"), FromUint64(42), MustHex("ffffffffffffffffffffffffffffffff")} {
		h := fnv.New64a()
		h.Write(id[:])
		if got, want := id.Seed(), h.Sum64(); got != want {
			t.Fatalf("Seed(%v) = %#x, want %#x", id, got, want)
		}
	}
}

func TestDigitRoundTrip(t *testing.T) {
	id := MustHex("0123456789abcdef0123456789abcdef")
	want := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0xa, 0xb, 0xc, 0xd, 0xe, 0xf}
	for i := 0; i < Digits; i++ {
		if got := id.Digit(i); got != want[i%16] {
			t.Fatalf("digit %d = %x, want %x", i, got, want[i%16])
		}
	}
}

func TestWithDigit(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		id := Random(rng)
		pos := rng.Intn(Digits)
		d := rng.Intn(Radix)
		out := id.WithDigit(pos, d)
		if out.Digit(pos) != d {
			t.Fatalf("WithDigit(%d,%x): digit = %x", pos, d, out.Digit(pos))
		}
		for i := 0; i < Digits; i++ {
			if i != pos && out.Digit(i) != id.Digit(i) {
				t.Fatalf("WithDigit(%d,%x) disturbed digit %d", pos, d, i)
			}
		}
	}
}

func TestCommonPrefixLen(t *testing.T) {
	tests := []struct {
		a, b string
		want int
	}{
		{"00000000000000000000000000000000", "00000000000000000000000000000000", Digits},
		{"00000000000000000000000000000000", "80000000000000000000000000000000", 0},
		{"abc00000000000000000000000000000", "abd00000000000000000000000000000", 2},
		{"abcd0000000000000000000000000000", "abcd0000000000000000000000000001", 31},
	}
	for _, tc := range tests {
		a, b := MustHex(tc.a), MustHex(tc.b)
		if got := CommonPrefixLen(a, b); got != tc.want {
			t.Errorf("CommonPrefixLen(%s,%s) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
		if got := CommonPrefixLen(b, a); got != tc.want {
			t.Errorf("CommonPrefixLen(%s,%s) = %d, want %d (symmetry)", tc.b, tc.a, got, tc.want)
		}
	}
}

func TestCommonPrefixLenProperty(t *testing.T) {
	f := func(a, b [16]byte) bool {
		x, y := ID(a), ID(b)
		l := CommonPrefixLen(x, y)
		for i := 0; i < l; i++ {
			if x.Digit(i) != y.Digit(i) {
				return false
			}
		}
		if l < Digits && x.Digit(l) == y.Digit(l) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestDistanceSymmetry(t *testing.T) {
	f := func(a, b [16]byte) bool {
		x, y := ID(a), ID(b)
		return Distance(x, y) == Distance(y, x) && RingDistance(x, y) == RingDistance(y, x)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestRingDistanceWraps(t *testing.T) {
	almostMax := MustHex("ffffffffffffffffffffffffffffffff")
	one := FromUint64(1)
	d := RingDistance(almostMax, one)
	if got := FromUint64(2); d != got {
		t.Fatalf("ring distance across wrap = %s, want %s", d, got)
	}
}

func TestCloserToKeyTotalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	key := Random(rng)
	a, b := Random(rng), Random(rng)
	if a == b {
		t.Skip("collision")
	}
	// Exactly one of the two must be closer (strict total order).
	if CloserToKey(key, a, b) == CloserToKey(key, b, a) {
		t.Fatalf("CloserToKey not antisymmetric for %s/%s", a.Short(), b.Short())
	}
}

func TestFromHexErrors(t *testing.T) {
	if _, err := FromHex("zz"); err == nil {
		t.Error("FromHex(zz) should fail")
	}
	if _, err := FromHex("00112233445566778899aabbccddeeff00"); err == nil {
		t.Error("FromHex(too long) should fail")
	}
	id, err := FromHex("f")
	if err != nil {
		t.Fatalf("FromHex(f): %v", err)
	}
	if id != FromUint64(0xf) {
		t.Errorf("FromHex(f) = %s", id)
	}
}

func TestFromKeyDeterministic(t *testing.T) {
	if FromKey("cpu_util") != FromKey("cpu_util") {
		t.Error("FromKey not deterministic")
	}
	if FromKey("a") == FromKey("b") {
		t.Error("FromKey collision on distinct keys")
	}
}

func TestFraction(t *testing.T) {
	if f := Fraction(Zero); f != 0 {
		t.Errorf("Fraction(0) = %v", f)
	}
	half := MustHex("80000000000000000000000000000000")
	if f := Fraction(half); f < 0.499 || f > 0.501 {
		t.Errorf("Fraction(2^127) = %v, want 0.5", f)
	}
}

func TestCmpAgainstStrings(t *testing.T) {
	f := func(a, b [16]byte) bool {
		x, y := ID(a), ID(b)
		want := 0
		if x.String() < y.String() {
			want = -1
		} else if x.String() > y.String() {
			want = 1
		}
		return Cmp(x, y) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

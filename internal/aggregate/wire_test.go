package aggregate

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"github.com/moara/moara/internal/ids"
	"github.com/moara/moara/internal/value"
	"github.com/moara/moara/internal/wirefmt"
)

// appendState appends st's tag and body.
func appendState(b []byte, st State) ([]byte, error) {
	c := wirefmt.Codec{B: b}
	WireState(&c, &st)
	return c.B, c.Err()
}

// readState decodes one state, returning the unconsumed remainder.
func readState(b []byte) (State, []byte, error) {
	c := wirefmt.Codec{B: b, Dec: true}
	var st State
	if WireState(&c, &st); c.Err() != nil {
		return nil, nil, c.Err()
	}
	return st, c.B, nil
}

// TestEveryKindHasALayout: for every registered kind, a populated leaf
// state and a 3-key GroupedState of it round-trip through WireState
// under the kind's byte and decode DeepEqual. It guards the one
// dispatch arm each leaf type has in wireState, which the transport
// sweep's hand-listed samples cannot.
func TestEveryKindHasALayout(t *testing.T) {
	for _, kind := range Kinds() {
		spec := specFor(kind)
		leaf := freshState(spec)
		g := NewGrouped(spec, 0)
		for i := range 9 {
			node, v := ids.FromUint64(uint64(i+1)), value.Int(int64(i*7%5))
			leaf.Add(node, v)
			g.AddKeyed(node, fmt.Sprintf("k%d", i%3), v)
		}
		for _, tc := range []struct {
			st   State
			tags []byte // the leading bytes: state tag, then a grouped spec's kind
		}{
			{leaf, []byte{byte(kind)}},
			{g, []byte{wireGrouped, byte(kind)}},
		} {
			b, err := appendState(nil, tc.st)
			if err != nil {
				t.Errorf("%v %T: encode: %v", kind, tc.st, err)
				continue
			}
			if len(b) < len(tc.tags) || string(b[:len(tc.tags)]) != string(tc.tags) {
				t.Errorf("%v %T: encoding starts % x, want % x", kind, tc.st, b[:min(len(b), len(tc.tags))], tc.tags)
				continue
			}
			got, rest, err := readState(b)
			switch {
			case err != nil:
				t.Errorf("%v %T: decode: %v", kind, tc.st, err)
			case len(rest) != 0:
				t.Errorf("%v %T: %d bytes left after decode", kind, tc.st, len(rest))
			case !reflect.DeepEqual(got, tc.st):
				t.Errorf("%v %T: round trip mismatch:\n got %#v\nwant %#v", kind, tc.st, got, tc.st)
			}
		}
	}
}

// TestUnknownKindBytesAreCorrupt: a state tag, or a grouped spec's kind
// byte, with no registry row decodes as corrupt, never as an index
// panic on the registry array.
func TestUnknownKindBytesAreCorrupt(t *testing.T) {
	for tag := range 256 {
		if tag == wireNilState || tag == wireGrouped || Kind(tag).registered() {
			continue
		}
		for name, b := range map[string][]byte{
			"state tag":         {byte(tag), 0, 0},
			"grouped spec kind": append([]byte{wireGrouped, byte(tag), 0}, make([]byte, 8)...),
		} {
			if _, _, err := readState(b); !errors.Is(err, wirefmt.ErrCorrupt) {
				t.Errorf("%s %d: err %v, want ErrCorrupt", name, tag, err)
			}
		}
	}
}

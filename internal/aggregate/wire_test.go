package aggregate

import "github.com/moara/moara/internal/wirefmt"

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

package core

import (
	"slices"
	"time"
)

// ledger is §6.2's answer-once memory. For every query that reached
// this node it records the trees the query arrived through — a second
// arrival through the same tree is a replay, answered Dup and not
// forwarded again — and whether the node already contributed its local
// value, so a node on several trees of one cover answers exactly once.
//
// Expiry is by generation, not by timestamp: records go to cur, and
// rotate (driven by the GC timer) clears old and swaps the two once
// SeenTTL has passed since the previous rotation. A record therefore
// lives at least SeenTTL and at most two rotation intervals. Clearing a
// map wholesale, unlike deleting expired entries one at a time, leaves
// no tombstones for the table to carry and keeps its storage for the
// next generation, so steady state allocates nothing.
type ledger struct {
	cur, old map[QueryID]ledgerRec
	// curSpill and oldSpill hold, per generation, the tree ids of a
	// record that did not fit inline (recSpilled). A node sits on more
	// than three trees of one cover only rarely; nil until first used.
	curSpill, oldSpill map[QueryID][]uint32
	rotatedAt          time.Duration
}

// ledgerRec is one query's record: up to three interned tree ids
// inline, each stored as id+1 so that zero marks a free slot, and the
// rec* flags.
type ledgerRec struct {
	trees [3]uint16
	flags uint16
}

const (
	recAnswered uint16 = 1 << iota
	recSpilled
)

func newLedger() ledger {
	return ledger{cur: make(map[QueryID]ledgerRec), old: make(map[QueryID]ledgerRec)}
}

// get returns qid's record, looking in the newer generation first.
func (l *ledger) get(qid QueryID) (rec ledgerRec, fromOld bool) {
	if rec, ok := l.cur[qid]; ok {
		return rec, false
	}
	rec, fromOld = l.old[qid]
	return rec, fromOld
}

// carry copies the spilled tree ids of a record read from the older
// generation forward, ahead of the record itself.
func (l *ledger) carry(qid QueryID, rec ledgerRec, fromOld bool) {
	if fromOld && rec.flags&recSpilled != 0 {
		l.spill()[qid] = l.oldSpill[qid]
	}
}

func (l *ledger) spill() map[QueryID][]uint32 {
	if l.curSpill == nil {
		l.curSpill = make(map[QueryID][]uint32)
	}
	return l.curSpill
}

// arrive records that qid reached this node through the tree interned
// as gid, and reports whether it already had (a replay).
func (l *ledger) arrive(qid QueryID, gid uint32) (dup bool) {
	rec, fromOld := l.get(qid)
	tag, free := gid+1, -1
	for i, t := range rec.trees {
		switch {
		case uint32(t) == tag:
			return true
		case t == 0 && free < 0:
			free = i
		}
	}
	if rec.flags&recSpilled != 0 {
		spill := l.curSpill
		if fromOld {
			spill = l.oldSpill
		}
		if slices.Contains(spill[qid], gid) {
			return true
		}
	}
	l.carry(qid, rec, fromOld)
	if free >= 0 && tag <= 0xFFFF {
		rec.trees[free] = uint16(tag)
	} else {
		rec.flags |= recSpilled
		spill := l.spill()
		spill[qid] = append(spill[qid], gid)
	}
	l.cur[qid] = rec
	return false
}

// claim reserves this node's single contribution to qid, reporting
// false when it was already made.
func (l *ledger) claim(qid QueryID) bool {
	rec, fromOld := l.get(qid)
	if rec.flags&recAnswered != 0 {
		return false
	}
	l.carry(qid, rec, fromOld)
	rec.flags |= recAnswered
	l.cur[qid] = rec
	return true
}

// rotate retires the older generation once ttl has passed since the
// previous rotation.
func (l *ledger) rotate(now, ttl time.Duration) {
	if now-l.rotatedAt < ttl {
		return
	}
	clear(l.old)
	clear(l.oldSpill)
	l.cur, l.old = l.old, l.cur
	l.curSpill, l.oldSpill = l.oldSpill, l.curSpill
	l.rotatedAt = now
}

// empty reports whether neither generation holds a record.
func (l *ledger) empty() bool { return len(l.cur) == 0 && len(l.old) == 0 }

// size counts the distinct queries remembered across both generations
// (a record copied forward sits in both until the older is cleared).
func (l *ledger) size() int {
	n := len(l.cur)
	for qid := range l.old {
		if _, ok := l.cur[qid]; !ok {
			n++
		}
	}
	return n
}

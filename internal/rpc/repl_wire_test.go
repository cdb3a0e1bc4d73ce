package rpc

import (
	"errors"
	"testing"
	"time"
)

// repl_wire_test.go: seeded-random round-trips for the metadata
// replication messages (ballots, log shipping, snapshot install,
// status) and the NotLeader redirect error, plus the rule that a zero
// NewEpoch on MetaCommitReq keeps its meaning on the wire.

func TestMetaVoteRoundTrip(t *testing.T)   { checkRoundTrips(t, MsgMetaVote, MsgMetaVoteResp) }
func TestMetaAppendRoundTrip(t *testing.T) { checkRoundTrips(t, MsgMetaAppend, MsgMetaAppendResp) }
func TestMetaSnapInstallRoundTrip(t *testing.T) {
	checkRoundTrips(t, MsgMetaSnapInstall)
}
func TestMetaStatusRoundTrip(t *testing.T) { checkRoundTrips(t, MsgMetaStatus, MsgMetaStatusResp) }

func TestNotLeaderErrorCarriesHint(t *testing.T) {
	body := Encode(nil, MsgError, &RemoteError{Code: ErrCodeNotLeader, Msg: "not the metadata leader",
		RetryAfter: 50 * time.Millisecond, Leader: "10.0.0.2:7060"})
	re := &RemoteError{}
	if err := Decode(roundTripFrame(t, body, MsgError), re); err != nil {
		t.Fatalf("decode error: %v", err)
	}
	if re.Code != ErrCodeNotLeader || re.Leader != "10.0.0.2:7060" {
		t.Fatalf("redirect lost fields: %+v", re)
	}
	if re.RetryAfter != 50*time.Millisecond {
		t.Fatalf("retry-after %v, want 50ms", re.RetryAfter)
	}
	if !errors.Is(re, ErrNotLeader) {
		t.Fatalf("NotLeader error does not match ErrNotLeader sentinel: %v", re)
	}

	// Without a hint the field decodes empty.
	plain := Encode(nil, MsgError, &RemoteError{Code: ErrCodeBadRequest, Msg: "nope"})
	re2 := &RemoteError{}
	if err := Decode(roundTripFrame(t, plain, MsgError), re2); err != nil {
		t.Fatalf("decode plain error: %v", err)
	}
	if re2.Leader != "" || errors.Is(re2, ErrNotLeader) {
		t.Fatalf("plain error grew a leader hint: %+v", re2)
	}
}

// TestMetaCommitNewEpochCompat: NewEpoch always travels; zero keeps
// its meaning (the service picks the epoch) and a stamped value
// survives verbatim.
func TestMetaCommitNewEpochCompat(t *testing.T) {
	req := &MetaCommitReq{
		Name: "f", OldEpoch: 7, StoreName: "f@8",
		Nodes: []string{"n1:1"}, Assign: []int{0},
	}
	for _, epoch := range []uint64{0, 5 << 20} {
		req.NewEpoch = epoch
		got := &MetaCommitReq{}
		if err := Decode(roundTripFrame(t, Encode(nil, MsgMetaCommit, req), MsgMetaCommit), got); err != nil {
			t.Fatalf("decode commit at NewEpoch %d: %v", epoch, err)
		}
		if got.NewEpoch != epoch {
			t.Fatalf("NewEpoch %d, want %d", got.NewEpoch, epoch)
		}
	}
}

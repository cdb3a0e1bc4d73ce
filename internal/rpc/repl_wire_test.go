package rpc

import (
	"errors"
	"math/rand"
	"testing"
	"time"
)

// repl_wire_test.go: seeded-random round-trips for the metadata
// replication messages (ballots, log shipping, snapshot install,
// status) and the NotLeader redirect error, plus the compat rule that
// a zero NewEpoch on MetaCommitReq encodes byte-identically to the
// pre-replication wire format.

func TestMetaVoteRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		req := &MetaVoteReq{
			Term:      rng.Uint64(),
			Candidate: randString(rng, 40),
			LastIndex: rng.Uint64(),
			LastTerm:  rng.Uint64(),
		}
		got, err := DecodeMetaVote(roundTrip(t, AppendMetaVote(nil, req), MsgMetaVote))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if *got != *req {
			t.Fatalf("round trip: got %+v, want %+v", got, req)
		}

		resp := &MetaVoteResp{Term: rng.Uint64(), Granted: rng.Intn(2) == 1}
		gotR, err := DecodeMetaVoteResp(roundTrip(t, AppendMetaVoteResp(nil, resp), MsgMetaVoteResp))
		if err != nil {
			t.Fatalf("decode resp: %v", err)
		}
		if *gotR != *resp {
			t.Fatalf("resp round trip: got %+v, want %+v", gotR, resp)
		}
	}
}

func TestMetaAppendRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 200; i++ {
		req := &MetaAppendReq{
			Term:      rng.Uint64(),
			Leader:    randString(rng, 40),
			PrevIndex: rng.Uint64(),
			PrevTerm:  rng.Uint64(),
		}
		for j := rng.Intn(4); j > 0; j-- {
			req.Entries = append(req.Entries, ReplEntry{
				Index:   rng.Uint64(),
				Term:    rng.Uint64(),
				Payload: randBytes(rng, 128),
			})
		}
		got, err := DecodeMetaAppend(roundTrip(t, AppendMetaAppend(nil, req), MsgMetaAppend))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if got.Term != req.Term || got.Leader != req.Leader ||
			got.PrevIndex != req.PrevIndex || got.PrevTerm != req.PrevTerm ||
			len(got.Entries) != len(req.Entries) {
			t.Fatalf("round trip: got %+v, want %+v", got, req)
		}
		for j := range req.Entries {
			if got.Entries[j].Index != req.Entries[j].Index ||
				got.Entries[j].Term != req.Entries[j].Term ||
				string(got.Entries[j].Payload) != string(req.Entries[j].Payload) {
				t.Fatalf("entry %d: got %+v, want %+v", j, got.Entries[j], req.Entries[j])
			}
		}

		resp := &MetaAppendResp{Term: rng.Uint64(), OK: rng.Intn(2) == 1, LastIndex: rng.Uint64()}
		gotR, err := DecodeMetaAppendResp(roundTrip(t, AppendMetaAppendResp(nil, resp), MsgMetaAppendResp))
		if err != nil {
			t.Fatalf("decode resp: %v", err)
		}
		if *gotR != *resp {
			t.Fatalf("resp round trip: got %+v, want %+v", gotR, resp)
		}
	}
}

func TestMetaSnapInstallRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 200; i++ {
		req := &MetaSnapInstallReq{
			Term:      rng.Uint64(),
			Leader:    randString(rng, 40),
			LastIndex: rng.Uint64(),
			LastTerm:  rng.Uint64(),
			State:     randBytes(rng, 512),
		}
		got, err := DecodeMetaSnapInstall(roundTrip(t, AppendMetaSnapInstall(nil, req), MsgMetaSnapInstall))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if got.Term != req.Term || got.Leader != req.Leader ||
			got.LastIndex != req.LastIndex || got.LastTerm != req.LastTerm ||
			string(got.State) != string(req.State) {
			t.Fatalf("round trip mismatch")
		}
	}
}

func TestMetaStatusRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	roles := []string{RoleFollower, RoleCandidate, RoleLeader, RoleStandalone}
	for i := 0; i < 200; i++ {
		info := &MetaStatusInfo{
			Term:      rng.Uint64(),
			Role:      roles[rng.Intn(len(roles))],
			Leader:    randString(rng, 40),
			Self:      randString(rng, 40),
			LastIndex: rng.Uint64(),
			LastTerm:  rng.Uint64(),
			LeaseMs:   rng.Int63n(1000),
			Peers:     int64(1 + rng.Intn(7)),
		}
		got, err := DecodeMetaStatusResp(roundTrip(t, AppendMetaStatusResp(nil, info), MsgMetaStatusResp))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if *got != *info {
			t.Fatalf("round trip: got %+v, want %+v", got, info)
		}
	}
	// The probe itself is an empty body.
	if p := roundTrip(t, AppendMetaStatus(nil), MsgMetaStatus); len(p) != 0 {
		t.Fatalf("status probe carries %d payload bytes, want 0", len(p))
	}
}

func TestNotLeaderErrorCarriesHint(t *testing.T) {
	body := AppendErrorLeader(nil, ErrCodeNotLeader, "not the metadata leader",
		50*time.Millisecond, "10.0.0.2:7060")
	re, err := DecodeError(roundTrip(t, body, MsgError))
	if err != nil {
		t.Fatalf("DecodeError: %v", err)
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
	plain := AppendError(nil, ErrCodeBadRequest, "nope")
	re2, err := DecodeError(roundTrip(t, plain, MsgError))
	if err != nil {
		t.Fatalf("DecodeError(plain): %v", err)
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
		got, err := DecodeMetaCommit(roundTrip(t, AppendMetaCommit(nil, req), MsgMetaCommit))
		if err != nil {
			t.Fatalf("decode commit at NewEpoch %d: %v", epoch, err)
		}
		if got.NewEpoch != epoch {
			t.Fatalf("NewEpoch %d, want %d", got.NewEpoch, epoch)
		}
	}
}

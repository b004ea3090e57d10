package quorum

import "testing"

// FuzzAssignmentValidate checks that Validate never panics and agrees with
// the two consistency conditions computed directly.
func FuzzAssignmentValidate(f *testing.F) {
	f.Add(1, 101, 101)
	f.Add(50, 52, 101)
	f.Add(0, 0, 0)
	f.Add(-5, 7, 10)
	f.Fuzz(func(t *testing.T, qr, qw, T int) {
		a := Assignment{QR: qr, QW: qw}
		err := a.Validate(T)
		wantValid := T > 0 &&
			qr >= 1 && qr <= T &&
			qw >= 1 && qw <= T &&
			qr+qw > T && 2*qw > T
		if wantValid != (err == nil) {
			t.Fatalf("Validate(%d) on %v: err=%v, conditions say valid=%v", T, a, err, wantValid)
		}
	})
}

// FuzzFromVotes checks that vote-induced expressions never panic within
// their supported domain, that an induced write coterie always validates
// (pairwise, over its minimal quorums), and that the pruned enumerator
// returns exactly the minimal quorums of the 2ⁿ subset oracle.
func FuzzFromVotes(f *testing.F) {
	f.Add([]byte{1, 1, 1, 1, 1}, uint8(3))
	f.Add([]byte{2, 1, 1}, uint8(3))
	f.Fuzz(func(t *testing.T, raw []byte, qRaw uint8) {
		if len(raw) == 0 || len(raw) > 8 {
			return
		}
		votes := make(VoteAssignment, len(raw))
		total := 0
		for i, b := range raw {
			votes[i] = int(b % 4)
			total += votes[i]
		}
		if total == 0 {
			return
		}
		// Any write quorum (majority of votes) must induce a valid coterie.
		q := total/2 + 1 + int(qRaw)%(total/2+1)
		if q > total {
			q = total
		}
		e := Threshold(votes, q)
		if err := coterie(Or(e)).Validate(); err != nil {
			t.Fatalf("votes %v q=%d: induced coterie invalid: %v", votes, q, err)
		}
		assertSameGroups(t, e, fromVotesOracle(votes, q))
	})
}

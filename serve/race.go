package serve

import (
	"context"
	"fmt"

	"repro"
)

// raceHandle runs one racing job (repro.Session.Race). Its stream is
// the race's conflated leaderboard, one EventLeaderboard frame per
// board; its outcome is the RaceResult, surfaced as JobInfo.Race.
type raceHandle struct{ *repro.RaceJob }

func (h raceHandle) wait() error {
	_, err := h.Wait()
	return err
}

func (h raceHandle) events(emit func(frame)) {
	for b := range h.Board() {
		emit(boardFrame(b))
	}
	<-h.Done() // the result is readable before the stream ends
}

// fill sets the race section: the current leaderboard, plus the final
// result once the race has ended (partial for a stopped race — cut
// lanes keep their best-so-far).
func (h raceHandle) fill(ji *JobInfo) {
	ji.Race = &RaceInfo{Board: h.Snapshot()}
	if ji.State != JobRunning {
		ji.Race.Result, _ = h.Wait()
	}
}

// startRace validates a racing request and launches it via
// Session.Race. The wire's standard config field configures the GA
// lanes when the spec carries none of its own.
func startRace(ctx context.Context, se *sessionEntry, _ string, req JobRequest) (runHandle, error) {
	if req.Sweep != nil || req.Islands != 0 || req.MigrationInterval != 0 || req.MigrationCount != 0 {
		return nil, fmt.Errorf("%w: racing jobs run their own lanes; sweep, island and migration options do not apply", repro.ErrBadConfig)
	}
	spec := *req.Race
	if spec.Config == nil {
		cfg := req.Config
		spec.Config = &cfg
	}
	rj, err := se.sess.Race(ctx, spec)
	if err != nil {
		return nil, err
	}
	return raceHandle{rj}, nil
}

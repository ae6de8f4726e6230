package engine

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"vexdb/internal/governor"
)

// MaxWorkers bounds SET workers. A setting is input from a remote
// client, and every parallel operator of a query starts that many
// goroutines.
const MaxWorkers = 256

// Errors of SET and SHOW.
var (
	// ErrUnknownSetting names a setting that does not exist.
	ErrUnknownSetting = errors.New("engine: unknown setting")
	// ErrSettingValue is a value its setting cannot take: a negative
	// number, workers above MaxWorkers, a budget that is no integer, a
	// planner that is neither on nor off.
	ErrSettingValue = errors.New("engine: invalid setting value")
	// ErrNoSession is SET outside a session: it would change the
	// defaults every session-less query shares.
	ErrNoSession = errors.New("engine: SET needs a session")
)

// Settings are what one query runs with. A query copies them when it
// opens, so a SET after that leaves it alone.
type Settings struct {
	Workers int   // executor workers; 0 = runtime.NumCPU()
	Budget  int64 // bytes a query's blocking operators may hold; 0 = unlimited
	Planner bool  // whether the cost-based pass runs; results are the same either way
}

// Session is one client's scope: the settings its queries run with
// and, when the database has a governor, the admission scope its
// per-session limits count against. SET and SHOW read and write its
// settings. A session runs one statement at a time; open one per
// client (the wire server opens one per connection).
type Session struct {
	Settings Settings
	gov      *governor.Session
}

// NewSession opens a session with the database's defaults, the cost
// planner on. Close it when the client is done.
func (db *DB) NewSession() *Session {
	s := &Session{Settings: db.defaults()}
	if db.Gov != nil {
		s.gov = db.Gov.NewSession()
	}
	return s
}

// Close closes the session's governor scope: its later admissions
// fail, its running queries finish.
func (s *Session) Close() {
	if s.gov != nil {
		s.gov.Close()
	}
}

// defaults are the settings of a session-less query, read when the
// query opens.
func (db *DB) defaults() Settings {
	return Settings{Workers: db.Parallelism, Budget: db.MemoryBudget, Planner: true}
}

// scope returns what a query in sess (nil: none) runs with: its
// settings and its governor session.
func (db *DB) scope(sess *Session) (Settings, *governor.Session) {
	if sess == nil {
		return db.defaults(), nil
	}
	return sess.Settings, sess.gov
}

// set assigns the text value to the named setting.
func (s *Settings) set(name, value string) error {
	bad := func(want string) error {
		return fmt.Errorf("%w: %s = %s, want %s", ErrSettingValue, name, value, want)
	}
	switch name {
	case "workers":
		n, err := strconv.Atoi(value)
		if err != nil || n < 0 || n > MaxWorkers {
			return bad(fmt.Sprintf("an integer from 0 to %d", MaxWorkers))
		}
		s.Workers = n
	case "memory_budget":
		n, err := strconv.ParseInt(value, 10, 64)
		if err != nil || n < 0 {
			return bad("a byte count of 0 or more")
		}
		s.Budget = n
	case "planner":
		switch strings.ToLower(value) {
		case "on":
			s.Planner = true
		case "off":
			s.Planner = false
		default:
			return bad("on or off")
		}
	default:
		return fmt.Errorf("%w %q", ErrUnknownSetting, name)
	}
	return nil
}

// show renders the named setting as SET reads it back.
func (s Settings) show(name string) (string, error) {
	switch name {
	case "workers":
		return strconv.Itoa(s.Workers), nil
	case "memory_budget":
		return strconv.FormatInt(s.Budget, 10), nil
	case "planner":
		return onOff(s.Planner), nil
	}
	return "", fmt.Errorf("%w %q", ErrUnknownSetting, name)
}

func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}

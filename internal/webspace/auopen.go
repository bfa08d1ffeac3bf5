package webspace

import (
	"fmt"
	"math/rand"
	"strings"
)

// AusOpenSchema builds the conceptual schema of the Australian Open site
// used throughout the demo: players, finals, videos and interviews, with
// the associations whose loss in flattened HTML motivates the webspace
// method.
func AusOpenSchema() (*Schema, error) {
	s := NewSchema("auopen")
	var err error
	add := func(name string, attrs map[string]AttrType) {
		if err == nil {
			_, err = s.AddClass(name, attrs)
		}
	}
	assoc := func(from, role, to string, many bool) {
		if err == nil {
			err = s.AddAssoc(from, role, to, many)
		}
	}
	add("Player", map[string]AttrType{
		"name": AttrString, "sex": AttrString, "handedness": AttrString,
		"country": AttrString, "bio": AttrText,
	})
	add("Final", map[string]AttrType{
		"year": AttrInt, "category": AttrString, "report": AttrText,
	})
	add("Video", map[string]AttrType{
		"name": AttrString, "description": AttrText,
	})
	add("Interview", map[string]AttrType{
		"text": AttrText,
	})
	assoc("Final", "winner", "Player", false)
	assoc("Final", "runnerup", "Player", false)
	assoc("Final", "video", "Video", false)
	assoc("Player", "wonFinals", "Final", true)
	assoc("Player", "playedFinals", "Final", true)
	assoc("Player", "interviews", "Interview", true)
	assoc("Interview", "player", "Player", false)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// SiteConfig parameterizes the synthetic site.
type SiteConfig struct {
	// Players is the number of players to generate (default 64; at least 8).
	Players int
	// YearStart and YearEnd bound the tournament editions (inclusive;
	// defaults 1988-2001).
	YearStart, YearEnd int
	// Seed drives all randomness.
	Seed int64
}

func (c SiteConfig) withDefaults() SiteConfig {
	if c.Players == 0 {
		c.Players = 64
	}
	if c.YearStart == 0 {
		c.YearStart = 1988
	}
	if c.YearEnd == 0 {
		c.YearEnd = 2001
	}
	return c
}

// Site is the generated Australian Open webspace plus its flattened pages.
type Site struct {
	// W is the conceptual object graph (what the webspace method queries).
	W *Webspace
	// Pages are the flattened HTML-equivalent pages (what a keyword-only
	// engine indexes).
	Pages []Page
}

var (
	nameSyllables = []string{
		"an", "bel", "ca", "dra", "el", "fi", "go", "hen", "is", "jo",
		"ka", "lu", "mar", "na", "ol", "pe", "qui", "ro", "sa", "ti",
		"ur", "va", "wil", "xa", "ya", "zo",
	}
	countries = []string{
		"Australia", "Belgium", "Croatia", "France", "Germany", "Japan",
		"Netherlands", "Russia", "Spain", "Sweden", "Switzerland", "USA",
	}
)

func genName(rng *rand.Rand) string {
	n := 2 + rng.Intn(2)
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteString(nameSyllables[rng.Intn(len(nameSyllables))])
	}
	first := strings.ToUpper(sb.String()[:1]) + sb.String()[1:]
	sb.Reset()
	n = 2 + rng.Intn(2)
	for i := 0; i < n; i++ {
		sb.WriteString(nameSyllables[rng.Intn(len(nameSyllables))])
	}
	last := strings.ToUpper(sb.String()[:1]) + sb.String()[1:]
	return first + " " + last
}

// GenerateAusOpen builds a deterministic synthetic Australian Open site:
// the conceptual object graph and the flattened pages. Finals exist for
// every year in range in both the women's and men's category; 15% of
// players are left-handed, mirroring reality closely enough for the
// motivating query to have a non-trivial answer set.
func GenerateAusOpen(cfg SiteConfig) (*Site, error) {
	cfg = cfg.withDefaults()
	if cfg.Players < 8 {
		return nil, fmt.Errorf("webspace: need at least 8 players, got %d", cfg.Players)
	}
	if cfg.YearEnd < cfg.YearStart {
		return nil, fmt.Errorf("webspace: invalid year range %d-%d", cfg.YearStart, cfg.YearEnd)
	}
	schema, err := AusOpenSchema()
	if err != nil {
		return nil, err
	}
	w, err := New(schema)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	years := cfg.YearEnd - cfg.YearStart + 1
	site := &Site{W: w, Pages: make([]Page, 0, cfg.Players+4*years)}

	// Players: half female, half male; 15% left-handed. Their attribute
	// values are drawn first, so that the Player string columns are sized
	// once.
	type player struct{ name, sex, hand, country, bio string }
	players := make([]player, cfg.Players)
	strBytes := map[string]int{}
	seen := map[string]bool{}
	for i := range players {
		name := genName(rng)
		for seen[name] {
			name = genName(rng)
		}
		seen[name] = true
		sex := "female"
		if i%2 == 1 {
			sex = "male"
		}
		hand := "right"
		if rng.Float64() < 0.15 {
			hand = "left"
		}
		country := countries[rng.Intn(len(countries))]
		pronoun := "She"
		if sex == "male" {
			pronoun = "He"
		}
		bio := fmt.Sprintf(
			"%s is a professional tennis player from %s. %s plays %s-handed "+
				"and is known for a powerful baseline game. %s joined the "+
				"professional tour as a teenager.",
			name, country, pronoun, hand, pronoun)
		players[i] = player{name, sex, hand, country, bio}
		strBytes["name"] += len(name)
		strBytes["sex"] += len(sex)
		strBytes["handedness"] += len(hand)
		strBytes["country"] += len(country)
	}
	if err := w.reserve("Player", len(players), strBytes); err != nil {
		return nil, err
	}
	var females, males []*Object
	for _, pl := range players {
		p, err := w.NewObject("Player", map[string]any{
			"name": pl.name, "sex": pl.sex, "handedness": pl.hand,
			"country": pl.country, "bio": pl.bio,
		})
		if err != nil {
			return nil, err
		}
		if pl.sex == "female" {
			females = append(females, p)
		} else {
			males = append(males, p)
		}
		site.Pages = append(site.Pages, Page{
			Name:     fmt.Sprintf("players/%s.html", strings.ReplaceAll(strings.ToLower(pl.name), " ", "-")),
			Text:     pl.name + "\n" + pl.bio,
			ObjectID: p.ID,
		})
	}

	// Finals per year and category, with video and interview.
	for year := cfg.YearStart; year <= cfg.YearEnd; year++ {
		for _, cat := range []string{"women", "men"} {
			pool := females
			if cat == "men" {
				pool = males
			}
			wi := rng.Intn(len(pool))
			ri := rng.Intn(len(pool) - 1)
			if ri >= wi {
				ri++
			}
			winner, runner := pool[wi], pool[ri]
			report := fmt.Sprintf(
				"%s defeated %s in the %s's singles final of the %d "+
					"Australian Open, taking the championship title in "+
					"Melbourne after a hard-fought match.",
				winner.StringAttr("name"), runner.StringAttr("name"), cat, year)
			f, err := w.NewObject("Final", map[string]any{
				"year": int64(year), "category": cat, "report": report,
			})
			if err != nil {
				return nil, err
			}
			vidName := fmt.Sprintf("ausopen-%d-%s-final", year, cat)
			v, err := w.NewObject("Video", map[string]any{
				"name": vidName,
				"description": fmt.Sprintf("Full video of the %d %s's singles final.",
					year, cat),
			})
			if err != nil {
				return nil, err
			}
			interview := fmt.Sprintf(
				"After the %d final %s said: winning the Australian Open "+
					"has been my dream since childhood. The crowd in "+
					"Melbourne was amazing tonight.",
				year, winner.StringAttr("name"))
			iv, err := w.NewObject("Interview", map[string]any{"text": interview})
			if err != nil {
				return nil, err
			}
			for _, link := range []struct {
				from *Object
				role string
				to   *Object
			}{
				{f, "winner", winner}, {f, "runnerup", runner}, {f, "video", v},
				{winner, "wonFinals", f},
				{winner, "playedFinals", f}, {runner, "playedFinals", f},
				{winner, "interviews", iv}, {iv, "player", winner},
			} {
				if err := w.Link(link.from, link.role, link.to); err != nil {
					return nil, err
				}
			}
			site.Pages = append(site.Pages,
				Page{
					Name:     fmt.Sprintf("finals/%d-%s.html", year, cat),
					Text:     report,
					ObjectID: f.ID,
				},
				Page{
					Name:     fmt.Sprintf("interviews/%d-%s.html", year, cat),
					Text:     interview,
					ObjectID: iv.ID,
				})
		}
	}
	SortPages(site.Pages)
	return site, nil
}

// MotivatingQuery is the conceptual form of the paper's example: female
// players who are left-handed and have won the Australian Open in the past.
// (The video-scene half of the example — "in which they approach the net"
// — is joined in by the digital-library engine, internal/dlse.)
func MotivatingQuery() Query {
	return Query{
		Class: "Player",
		Where: []Constraint{
			{Attr: "sex", Op: OpEq, Val: "female"},
			{Attr: "handedness", Op: OpEq, Val: "left"},
			{Path: []string{"wonFinals"}}, // has won at least one final
		},
	}
}

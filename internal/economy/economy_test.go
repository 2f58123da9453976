package economy

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func twoSites() []*Producer {
	return []*Producer{
		{Site: "UTK", Capacity: 10, Cost: 1.0},
		{Site: "UIUC", Capacity: 20, Cost: 0.8},
	}
}

func someConsumers() []*Consumer {
	return []*Consumer{
		{Name: "qr", Budget: 40, Demand: 12, MaxPrice: 4},
		{Name: "nbody", Budget: 20, Demand: 8, MaxPrice: 3},
		{Name: "eman", Budget: 60, Demand: 15, MaxPrice: 5},
	}
}

func TestCommodityMarketClearsAndAdjusts(t *testing.T) {
	m, err := NewCommodityMarket(twoSites(), someConsumers(), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	r := m.Round()
	if r.Supply != 30 || r.Demand != 35 {
		t.Fatalf("supply/demand = %d/%d", r.Supply, r.Demand)
	}
	if r.Sold == 0 || r.Utilization == 0 {
		t.Fatalf("nothing sold: %+v", r)
	}
	// Demand exceeds supply: prices must rise from their starting points.
	p0 := m.Prices()
	for i := 0; i < 20; i++ {
		m.Round()
	}
	p1 := m.Prices()
	rose := false
	for site := range p0 {
		if p1[site] > p0[site] {
			rose = true
		}
	}
	if !rose {
		t.Fatalf("oversubscribed market prices never rose: %v -> %v", p0, p1)
	}
	// Consumers never exceed budgets.
	for _, pur := range r.Purchases {
		if pur.Units <= 0 || pur.Price <= 0 {
			t.Fatalf("bad purchase %+v", pur)
		}
	}
}

func TestCommodityPricesFallWhenDemandVanishes(t *testing.T) {
	consumers := []*Consumer{{Name: "idle", Budget: 0, Demand: 0, MaxPrice: 1}}
	m, err := NewCommodityMarket(twoSites(), consumers, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		m.Round()
	}
	for site, p := range m.Prices() {
		var cost float64
		for _, pr := range twoSites() {
			if pr.Site == site {
				cost = pr.Cost
			}
		}
		if math.Abs(p-cost) > 1e-9 {
			t.Fatalf("price at %s = %v, want floor %v with zero demand", site, p, cost)
		}
	}
}

func TestCommodityMarketValidation(t *testing.T) {
	if _, err := NewCommodityMarket(nil, someConsumers(), 0.1); err == nil {
		t.Fatal("no producers accepted")
	}
	if _, err := NewCommodityMarket(twoSites(), nil, 0.1); err == nil {
		t.Fatal("no consumers accepted")
	}
	bad := []*Producer{{Site: "X", Capacity: 0, Cost: 1}}
	if _, err := NewCommodityMarket(bad, someConsumers(), 0.1); err == nil {
		t.Fatal("zero capacity accepted")
	}
}

func TestAuctionUniformPriceAndBudgets(t *testing.T) {
	a, err := NewAuctioneer(twoSites(), someConsumers())
	if err != nil {
		t.Fatal(err)
	}
	r := a.Round()
	if r.Sold == 0 {
		t.Fatal("auction sold nothing")
	}
	// Uniform price: all purchases at the same clearing price.
	price := r.Purchases[0].Price
	for _, p := range r.Purchases {
		if p.Price != price {
			t.Fatalf("non-uniform prices: %v vs %v", p.Price, price)
		}
	}
	// Winners are the highest-valuation consumers: eman (value 4) and qr
	// (value 10/3) outbid nbody (2.5) for scarce supply... with supply 30 and
	// demand 35, the lowest-value units lose.
	units := map[string]int{}
	for _, p := range r.Purchases {
		units[p.Consumer] += p.Units
	}
	if units["eman"] != 15 || units["qr"] != 12 {
		t.Fatalf("high bidders not fully served: %v", units)
	}
	if units["nbody"] >= 8 {
		t.Fatalf("lowest bidder fully served despite scarcity: %v", units)
	}
}

func TestAuctionRespectsCostFloor(t *testing.T) {
	producers := []*Producer{{Site: "X", Capacity: 10, Cost: 5}}
	consumers := []*Consumer{{Name: "cheap", Budget: 10, Demand: 5, MaxPrice: 2}}
	a, err := NewAuctioneer(producers, consumers)
	if err != nil {
		t.Fatal(err)
	}
	r := a.Round()
	if r.Sold != 0 {
		t.Fatalf("units sold below production cost: %+v", r)
	}
}

// TestGCommerceFinding reproduces the cited result: under fluctuating
// demand the commodities market produces smoother prices than auctions at
// comparable utilization.
func TestGCommerceFinding(t *testing.T) {
	cm, err := NewCommodityMarket(twoSites(), someConsumers(), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	cmSeries := Simulate(cm, cm.Consumers, 300, rand.New(rand.NewSource(5)))

	au, err := NewAuctioneer(twoSites(), someConsumers())
	if err != nil {
		t.Fatal(err)
	}
	auSeries := Simulate(au, au.Consumers, 300, rand.New(rand.NewSource(5)))

	if cmSeries.PriceVolatility() >= auSeries.PriceVolatility() {
		t.Fatalf("commodity volatility %v not smoother than auction %v",
			cmSeries.PriceVolatility(), auSeries.PriceVolatility())
	}
	if cmSeries.MeanUtilization() < 0.5*auSeries.MeanUtilization() {
		t.Fatalf("commodity utilization %v collapsed vs auction %v",
			cmSeries.MeanUtilization(), auSeries.MeanUtilization())
	}
}

// Property: conservation — units sold never exceed supply or demand, and
// utilization is in [0, 1].
func TestQuickMarketConservation(t *testing.T) {
	f := func(caps [2]uint8, demands [3]uint8, budgets [3]uint8, auction bool) bool {
		producers := []*Producer{
			{Site: "A", Capacity: int(caps[0]%20) + 1, Cost: 1},
			{Site: "B", Capacity: int(caps[1]%20) + 1, Cost: 1.5},
		}
		var consumers []*Consumer
		for i := 0; i < 3; i++ {
			consumers = append(consumers, &Consumer{
				Name:     string(rune('a' + i)),
				Budget:   float64(budgets[i]%50) + 1,
				Demand:   int(demands[i] % 15),
				MaxPrice: 5,
			})
		}
		var m Market
		var err error
		if auction {
			m, err = NewAuctioneer(producers, consumers)
		} else {
			m, err = NewCommodityMarket(producers, consumers, 0.1)
		}
		if err != nil {
			return false
		}
		for round := 0; round < 10; round++ {
			r := m.Round()
			if r.Sold > r.Supply || r.Sold > r.Demand {
				return false
			}
			if r.Utilization < 0 || r.Utilization > 1 {
				return false
			}
			total := 0
			for _, p := range r.Purchases {
				total += p.Units
			}
			if total != r.Sold {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(86))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestSpotPriceStaysFiniteUnderSustainedOverload(t *testing.T) {
	sp := NewSpotPricer(1, 0.1)
	for i := 0; i < 100000; i++ {
		sp.Observe(1<<20, 1) // massively oversubscribed every round
	}
	if math.IsInf(sp.Price(), 0) || math.IsNaN(sp.Price()) {
		t.Fatalf("price overflowed: %v", sp.Price())
	}
	if sp.Price() > 1*maxPriceFactor {
		t.Fatalf("price %v above ceiling", sp.Price())
	}
	// And the price decays back once the pool idles.
	for i := 0; i < 1000000 && sp.Price() > sp.Floor; i++ {
		sp.Observe(0, 10)
	}
	if sp.Price() != sp.Floor {
		t.Fatalf("price did not decay to floor: %v", sp.Price())
	}
}

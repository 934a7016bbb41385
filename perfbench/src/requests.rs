//! The seeded request stream: query templates of three classes.
//!
//! Half of the requests repeat a small hot set of texts (one per template),
//! so the plan cache hits; the other half carry a fresh literal, so it
//! misses.

use rand::rngs::StdRng;
use rand::Rng;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// A plain query through the planner.
    Plain,
    /// An MXQL query through the planner (direct §5 semantics).
    Mxql,
    /// The same MXQL text through `MetaRunner` (§7.3 translation).
    Translated,
}

impl Class {
    pub fn name(self) -> &'static str {
        match self {
            Class::Plain => "plain",
            Class::Mxql => "mxql",
            Class::Translated => "translated",
        }
    }
}

/// One template; `{P}` is replaced by a price threshold.
pub struct Template {
    pub text: &'static str,
    pub mxql: bool,
    /// `Some(double)` when the text holds a mapping predicate.
    pub arrow: Option<bool>,
}

pub const TEMPLATES: &[Template] = &[
    // Plain: a selection, a target join, and the housesInNeighborhood
    // nested-set self-join of the §8 debugging case.
    Template {
        text: "select h.hid, h.price from Portal.houses h where h.price > {P}",
        mxql: false,
        arrow: None,
    },
    Template {
        text: "select h.hid, a.phone from Portal.houses h, Portal.agents a \
               where h.contact.name = a.name and h.price > {P}",
        mxql: false,
        arrow: None,
    },
    Template {
        text: "select h.hid, n.hid, h2.price \
               from Portal.houses h, h.housesInNeighborhood n, Portal.houses h2 \
               where n.hid = h2.hid and h.price > {P}",
        mxql: false,
        arrow: None,
    },
    // MXQL: @map, @elem, a single-arrow and a double-arrow predicate.
    Template {
        text: "select h.hid, h.price, m from Portal.houses h, h.price@map m where h.price > {P}",
        mxql: true,
        arrow: None,
    },
    Template {
        text: "select h.hid, h.city@elem from Portal.houses h where h.price > {P}",
        mxql: true,
        arrow: None,
    },
    Template {
        text: "select h.hid, m from Portal.houses h, h.price@map m \
               where h.price > {P} and e = h.price@elem \
               and <'NKdb':'/NK/properties/askingPrice' -> m -> 'Portal':e>",
        mxql: true,
        arrow: Some(false),
    },
    Template {
        text: "select h.hid, m from Portal.houses h, h.price@map m \
               where h.price > {P} and e = h.price@elem \
               and <'WFdb':'/WF/inventory/price' => m => 'Portal':e>",
        mxql: true,
        arrow: Some(true),
    },
];

/// One drawn request.
pub struct Request {
    pub class: Class,
    /// Index into `TEMPLATES`.
    pub template: usize,
    pub text: String,
    pub hot: bool,
}

impl Request {
    /// Class, template and hotness as one small number.
    pub fn kind(&self) -> usize {
        (self.class as usize * TEMPLATES.len() + self.template) * 2 + usize::from(self.hot)
    }
}

/// Fresh literals are drawn from this range; the hot texts all use
/// `HOT_PRICE`, so the hot set is the same for every seed.
const PRICE: std::ops::Range<i64> = 300_000..1_000_000;
const HOT_PRICE: i64 = 650_000;

/// The request stream. Requests come in cycles holding every
/// (class, template, hot) combination the same number of times, shuffled
/// by the seed, so the mix does not vary between seeds: the classes weigh
/// equally, templates equally within a class, and half are hot.
pub struct RequestStream {
    rng: StdRng,
    classes: Vec<Class>,
    cycle: Vec<(Class, usize, bool)>,
}

impl RequestStream {
    /// A stream over every class, or over the direct classes only.
    pub fn new(rng: StdRng, translated: bool) -> RequestStream {
        let mut classes = vec![Class::Plain, Class::Mxql];
        if translated {
            classes.push(Class::Translated);
        }
        RequestStream {
            rng,
            classes,
            cycle: Vec::new(),
        }
    }

    /// Requests in one cycle.
    pub fn cycle_len(&self) -> usize {
        let plain = TEMPLATES.iter().filter(|t| !t.mxql).count();
        let mxql = TEMPLATES.len() - plain;
        2 * plain * mxql * self.classes.len()
    }

    fn refill(&mut self) {
        let plain = TEMPLATES.iter().filter(|t| !t.mxql).count();
        let mxql = TEMPLATES.len() - plain;
        for &class in &self.classes {
            for (i, t) in TEMPLATES.iter().enumerate() {
                if t.mxql != (class != Class::Plain) {
                    continue;
                }
                // Each class gets plain·mxql slots per hotness.
                let copies = if t.mxql { plain } else { mxql };
                for _ in 0..copies {
                    self.cycle.push((class, i, true));
                    self.cycle.push((class, i, false));
                }
            }
        }
        for k in (1..self.cycle.len()).rev() {
            let j = self.rng.gen_range(0..k + 1);
            self.cycle.swap(k, j);
        }
    }

    pub fn next_request(&mut self) -> Request {
        if self.cycle.is_empty() {
            self.refill();
        }
        let (class, i, hot) = self.cycle.pop().expect("a refilled cycle");
        let price = if hot {
            HOT_PRICE
        } else {
            self.rng.gen_range(PRICE)
        };
        Request {
            class,
            template: i,
            text: TEMPLATES[i].text.replace("{P}", &price.to_string()),
            hot,
        }
    }
}

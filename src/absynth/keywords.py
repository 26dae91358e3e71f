"""Built-in topic library for chart and diagram synthesis.

Ships 150 seed topics across economics, technology, and society, each tagged
with the unit class that controls plausible value ranges. Chart sampling draws
from BUILTIN_TOPICS directly, so offline generation is always possible.
"""

from __future__ import annotations

from dataclasses import dataclass

# unit class -> (low end, high end of its sampled values, axis suffix)
UNIT_CLASSES: dict[str, tuple[int, int, str]] = {
    "percent": (1, 60, "%"),
    "currency": (10, 10_000, "$"),
    "count": (1, 500, ""),
}


@dataclass(frozen=True)
class Topic:
    text: str
    domain: str
    unit: str


def _topics(domain: str, unit: str, names: list[str]) -> list[Topic]:
    return [Topic(n, domain, unit) for n in names]


_ECONOMICS = (
    _topics("economics", "percent", [
        "GDP growth rate",
        "employment rate",
        "inflation rate",
        "interest rate trends",
        "unemployment by region",
        "market share of top retailers",
        "savings rate by age group",
        "export share by sector",
        "tax revenue share",
        "home ownership rate",
        "small business survival rate",
        "labor force participation",
        "tariff rates by product",
        "profit margin by industry",
        "loan approval rate",
        "budget allocation by ministry",
        "currency reserve composition",
    ])
    + _topics("economics", "currency", [
        "GDP",
        "average household income",
        "quarterly company revenue",
        "median home price",
        "monthly grocery spending",
        "foreign direct investment",
        "startup funding rounds",
        "agricultural subsidies",
        "tourism revenue by season",
        "pension fund assets",
        "municipal infrastructure budget",
        "average wage by occupation",
        "e-commerce sales volume",
        "energy import costs",
        "corporate tax receipts",
        "retail sales per store",
        "shipping cost per container",
    ])
    + _topics("economics", "count", [
        "new business registrations",
        "housing construction permits",
        "bankruptcies per quarter",
        "trade agreements signed",
        "factories by province",
        "bank branches per city",
        "patents filed by firms",
        "cargo ships per port",
        "farmers markets per county",
        "jobs added by sector",
        "mergers completed yearly",
        "retail outlets opened",
        "public works projects",
        "licensed street vendors",
        "freight trains per day",
        "commercial leases signed",
    ])
)

_TECHNOLOGY = (
    _topics("technology", "percent", [
        "smartphone market share",
        "renewable energy adoption",
        "cloud service uptime",
        "internet penetration rate",
        "electric vehicle share",
        "software bug fix rate",
        "browser usage share",
        "spam detection accuracy",
        "server utilization rate",
        "app crash rate by version",
        "broadband coverage by district",
        "two-factor adoption rate",
        "code test coverage",
        "recycling rate of e-waste",
        "battery efficiency gains",
        "network packet loss",
        "operating system share",
    ])
    + _topics("technology", "currency", [
        "energy consumption",
        "data center electricity bills",
        "semiconductor equipment spending",
        "research grant funding",
        "cybersecurity budgets",
        "robotics investment",
        "satellite launch costs",
        "software license revenue",
        "hardware repair costs",
        "telecom infrastructure spending",
        "AI research budgets",
        "gaming industry revenue",
        "smart home device sales",
        "electric grid upgrades",
        "drone fleet procurement",
        "3D printing material costs",
    ])
    + _topics("technology", "count", [
        "daily active app users",
        "servers per data center",
        "satellites launched yearly",
        "open source contributions",
        "charging stations per city",
        "robots per assembly line",
        "IoT sensors deployed",
        "websites hosted per platform",
        "drones registered annually",
        "software releases per team",
        "cell towers per region",
        "supercomputers by country",
        "electric buses in service",
        "digital kiosks installed",
        "patents in machine learning",
        "weather stations online",
        "fiber connections added",
    ])
)

_SOCIETY = (
    _topics("society", "percent", [
        "literacy rate by region",
        "voter turnout",
        "vaccination coverage",
        "public transport usage",
        "recycling participation",
        "museum attendance share",
        "school enrollment rate",
        "volunteer participation rate",
        "urban population share",
        "library membership rate",
        "bicycle commuting share",
        "blood donation rate",
        "park visitation share",
        "adult education enrollment",
        "pet ownership rate",
        "organic food preference",
        "remote work adoption",
    ])
    + _topics("society", "currency", [
        "healthcare spending per person",
        "school lunch budgets",
        "charity donations collected",
        "public library funding",
        "sports stadium revenue",
        "community center budgets",
        "arts program grants",
        "childcare costs monthly",
        "elder care spending",
        "festival ticket sales",
        "museum gift shop revenue",
        "playground construction costs",
        "youth program funding",
        "public pool maintenance",
        "concert hall earnings",
        "city cleanup budgets",
    ])
    + _topics("society", "count", [
        "hospital beds per district",
        "students per classroom",
        "parks per neighborhood",
        "annual marathon finishers",
        "books borrowed monthly",
        "theater performances yearly",
        "community gardens established",
        "firefighters per station",
        "museums per city",
        "sports clubs registered",
        "daycare centers licensed",
        "public murals painted",
        "neighborhood watch groups",
        "swimming lessons completed",
        "food bank visits weekly",
        "street festivals held",
        "youth orchestras active",
    ])
)


BUILTIN_TOPICS: tuple[Topic, ...] = tuple(_ECONOMICS + _TECHNOLOGY + _SOCIETY)

# Everyday procedures used as operating-workflow flowchart subjects.
WORKFLOW_TOPICS: tuple[str, ...] = (
    "designing a slide presentation",
    "booking a flight online",
    "brewing a pot of coffee",
    "submitting an expense report",
    "renewing a passport",
    "setting up a new laptop",
    "planting a vegetable garden",
    "organizing a team meeting",
    "returning an online order",
    "preparing a job application",
    "assembling flat-pack furniture",
    "scheduling a doctor visit",
    "publishing a blog post",
    "changing a bicycle tire",
    "hosting a dinner party",
    "moving to a new apartment",
)

# Classic iterative procedures used as algorithm flowchart subjects.
ALGORITHM_TOPICS: tuple[str, ...] = (
    "binary search",
    "bubble sort",
    "finding the maximum value",
    "computing a factorial",
    "validating a password",
    "counting word frequency",
    "summing a list of numbers",
    "checking for a palindrome",
)

# Organization-chart subjects for relation graphs.
ORGANIZATION_TOPICS: tuple[str, ...] = (
    "Digital Forensics Unit",
    "City Public Library",
    "Regional Hospital",
    "Game Development Studio",
    "Marine Research Institute",
    "Community Sports Club",
    "Culinary School",
    "Wildlife Conservation Trust",
    "Urban Planning Department",
    "Renewable Energy Cooperative",
    "Film Production Company",
    "Mountain Rescue Service",
)

"""Bundled example automata, loadable by name."""

from importlib import resources

from .automata import Dfao, loads_dfao

FIXTURE_NAMES = ("thue-morse", "mod3", "pow2-char", "ternary-tm")


def load_fixture(name: str) -> Dfao:
    if name not in FIXTURE_NAMES:
        raise KeyError(f"unknown fixture {name!r}; available: {', '.join(FIXTURE_NAMES)}")
    text = (
        resources.files("ranktwo")
        .joinpath("fixtures")
        .joinpath(f"{name}.dfao")
        .read_text(encoding="utf-8")
    )
    return loads_dfao(text)

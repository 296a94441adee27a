from datetime import datetime
from pathlib import Path

import pytest

from h2mpc.params import PlantParams, PlantState, PriceSeries, validate_params

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


@pytest.fixture(scope="session")
def params() -> PlantParams:
    return validate_params(PlantParams())


@pytest.fixture()
def state(params) -> PlantState:
    return PlantState(
        membrane_um=params.membrane_thickness_initial,
        storage_kmol=4200.0,
        clock=datetime(2022, 1, 3, 0, 0),
    )


def flat_series(start: datetime, n_steps: int, price: float) -> PriceSeries:
    return PriceSeries(start=start, prices=tuple([price] * n_steps))


@pytest.fixture(scope="session")
def dam_csv_path() -> Path:
    return DATA_DIR / "houston_jan2022_dam.csv"


@pytest.fixture(scope="session")
def rtm_csv_path() -> Path:
    return DATA_DIR / "houston_jan2022_rtm.csv"
